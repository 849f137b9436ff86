// The calendar-queue future-event list must be observationally identical to
// the straightforward reference: a priority queue over the canonical
// (time, h, k) key.  These tests drive both through the same randomized
// schedules — including events scheduled from inside running events,
// far-horizon events that live in the overflow tier, same-time bursts, and
// sparse schedules in which nearly every lookup jumps most of the ring — and
// require the exact same firing order.
#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/time.hpp"
#include "src/sim/node.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

/// Reference future-event list: the canonical key order the simulator must
/// preserve.  Setup events are keyed (root identity, root FIFO counter); an
/// event's children are keyed (event_identity of its own key, child index).
class ReferenceQueue {
 public:
  void at(std::int64_t t, int label) {
    heap_.push(Ref{t, Simulator::kRootIdentity, root_k_++, label});
  }

  /// Pops every event in (time, h, k) order, invoking `child_fn(label)` to get
  /// the same follow-up events the simulator's callbacks schedule.
  template <typename ChildFn>
  std::vector<int> drain(const ChildFn& child_fn, std::vector<std::int64_t>* times = nullptr) {
    std::vector<int> order;
    while (!heap_.empty()) {
      const Ref top = heap_.top();
      heap_.pop();
      order.push_back(top.label);
      if (times != nullptr) times->push_back(top.t);
      const std::uint64_t parent = Simulator::event_identity(top.h, top.k);
      std::uint32_t k = 0;
      for (const auto& [dt, child_label] : child_fn(top.label)) {
        heap_.push(Ref{top.t + dt, parent, k++, child_label});
      }
    }
    return order;
  }

 private:
  struct Ref {
    std::int64_t t;
    std::uint64_t h;
    std::uint32_t k;
    int label;
    bool operator>(const Ref& o) const {
      if (t != o.t) return t > o.t;
      if (h != o.h) return h > o.h;
      return k > o.k;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> heap_;
  std::uint32_t root_k_ = 0;
};

/// Children are a pure function of the parent label, so the reference and the
/// simulator generate identical follow-up schedules independently.  Labels
/// past the cutoff are leaves; without it the `% 5` chain would self-sustain
/// (300'000 is divisible by 5) and the schedule would never drain.
std::vector<std::pair<std::int64_t, int>> children_of(int label) {
  std::vector<std::pair<std::int64_t, int>> out;
  if (label >= 1'000'000) return out;
  if (label % 7 == 0) out.push_back({1, label + 100'000});            // same-ish time
  if (label % 11 == 0) out.push_back({700'000, label + 200'000});     // overflow horizon
  if (label % 5 == 0) out.push_back({(label % 97) * 13, label + 300'000});
  return out;
}

TEST(CalendarQueue, RandomizedOrderMatchesReference) {
  std::mt19937_64 rng(12345);
  // Offsets span same-bucket, cross-bucket, and far-overflow horizons
  // (the near window is ~0.5 ms wide).
  std::uniform_int_distribution<std::int64_t> offset(0, 2'000'000);

  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> sim_order;

  // The recursive scheduling helper the simulator side uses.
  struct Scheduler {
    Simulator& sim;
    std::vector<int>& order;
    void fire(int label) {
      order.push_back(label);
      for (const auto& [dt, child] : children_of(label)) {
        sim.after(TimeNs{dt}, [this, child] { fire(child); });
      }
    }
  } scheduler{sim, sim_order};

  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const std::int64_t t = offset(rng);
    sim.at(TimeNs{t}, [&scheduler, i] { scheduler.fire(i); });
    ref.at(t, i);
  }
  sim.run();
  const std::vector<int> ref_order = ref.drain(children_of);

  ASSERT_EQ(sim_order.size(), ref_order.size());
  EXPECT_EQ(sim_order, ref_order);
  EXPECT_EQ(sim.events_processed(), sim_order.size());
  EXPECT_EQ(sim.pending(), 0u);
}

/// Sparse children: labels below the cutoff get one follow-up 300-530 us
/// later — past half the 1024-bucket (~524 us) ring, so the next-bucket
/// search jumps most of the ring and usually wraps its index.
std::vector<std::pair<std::int64_t, int>> sparse_children_of(int label) {
  std::vector<std::pair<std::int64_t, int>> out;
  if (label >= 1'000'000) return out;
  out.push_back({300'000 + (static_cast<std::int64_t>(label) * 7919) % 230'000,
                 label + 1'000'000});
  return out;
}

TEST(CalendarQueue, SparseScheduleMatchesReference) {
  // Soak-like density: setup events 0.3-3 ms apart (mostly beyond the ring,
  // so they sit in the overflow tier until the clock approaches), each with
  // a child 0.3-0.53 ms later that lands in the ring far from the cursor.
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<std::int64_t> gap(300'000, 3'000'000);

  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> sim_order;
  std::vector<std::int64_t> sim_times;

  struct Scheduler {
    Simulator& sim;
    std::vector<int>& order;
    std::vector<std::int64_t>& times;
    void fire(int label) {
      order.push_back(label);
      times.push_back(sim.now().ns());
      for (const auto& [dt, child] : sparse_children_of(label)) {
        sim.after(TimeNs{dt}, [this, child] { fire(child); });
      }
    }
  } scheduler{sim, sim_order, sim_times};

  constexpr int kEvents = 3000;
  std::int64_t t = 0;
  for (int i = 0; i < kEvents; ++i) {
    t += gap(rng);
    sim.at(TimeNs{t}, [&scheduler, i] { scheduler.fire(i); });
    ref.at(t, i);
  }
  // Run in slices so lookups also start from a clock parked between events.
  for (std::int64_t until = 50'000'000; until < t; until += 50'000'000) {
    sim.run_until(TimeNs{until});
  }
  sim.run();
  std::vector<std::int64_t> ref_times;
  const std::vector<int> ref_order = ref.drain(sparse_children_of, &ref_times);

  ASSERT_EQ(sim_order.size(), ref_order.size());
  EXPECT_EQ(sim_order, ref_order);
  EXPECT_EQ(sim_times, ref_times);
  EXPECT_EQ(sim.events_processed(), sim_order.size());
  EXPECT_EQ(sim.pending(), 0u);

  // The schedule really is sparse: nearly every lookup skips at least 586
  // buckets (300 us); of those that stay inside the ring, most wrap its
  // index; and over a third jump past the ring into the overflow tier.
  std::size_t far = 0;
  std::size_t wrapped = 0;
  std::size_t beyond_ring = 0;
  for (std::size_t i = 1; i < sim_times.size(); ++i) {
    const std::int64_t d = sim_times[i] - sim_times[i - 1];
    if (d >= 300'000) ++far;
    if (d > 1024 * 512) {
      ++beyond_ring;
    } else if (((sim_times[i] >> 9) & 1023) < ((sim_times[i - 1] >> 9) & 1023)) {
      ++wrapped;
    }
  }
  EXPECT_GT(far * 10, sim_times.size() * 9);
  EXPECT_GT(wrapped * 2, sim_times.size() - beyond_ring);
  EXPECT_GT(beyond_ring * 3, sim_times.size());
}

/// Records (arrival time, payload size) of every packet handed to it.
class ArrivalLog final : public Node {
 public:
  explicit ArrivalLog(Simulator& sim) : Node(NodeId{0}, "log"), sim_(sim) {}
  void receive(PacketPtr pkt) override { arrivals.emplace_back(sim_.now().ns(), pkt->size_bytes); }
  std::vector<std::pair<std::int64_t, std::int64_t>> arrivals;

 private:
  Simulator& sim_;
};

TEST(CalendarQueue, ShardedCrossingsLandInEmptyBuckets) {
  // Shard 0 runs a sparse chain; every step hands a packet to shard 1, which
  // holds nothing else, so each drained crossing is pushed into an empty ring
  // bucket — or, when it lands more than a ring ahead of shard 1's clock,
  // into the overflow tier.  Both executors must deliver every packet at its
  // posted time, in time order.
  constexpr std::int64_t kLookahead = 2'000;
  constexpr int kSteps = 400;
  auto delay_of = [](int step) -> std::int64_t {
    return kLookahead + (static_cast<std::int64_t>(step) * 104'729) % 900'000;
  };
  auto gap_of = [](int step) -> std::int64_t {
    return 300'000 + (static_cast<std::int64_t>(step) * 15'485'863) % 2'700'000;
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> expected;
  std::int64_t t = 10'000;
  for (int step = 0; step < kSteps; ++step) {
    expected.emplace_back(t + delay_of(step), 100 + step);
    t += gap_of(step);
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 1; i < expected.size(); ++i) {
    ASSERT_NE(expected[i].first, expected[i - 1].first) << "workload must avoid ties";
  }

  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    Simulator sim;
    sim.configure_shards(2, TimeNs{kLookahead}, exec);
    ArrivalLog log(sim);
    struct Chain {
      Simulator* sim;
      ArrivalLog* dst;
      std::int64_t (*delay)(int);
      std::int64_t (*gap)(int);
      int step = 0;
      void fire() {
        auto pkt = make_packet(sim->packet_pool(), PacketKind::kData, VmPairId{VmId{1}, VmId{2}},
                               TenantId{0}, HostId{0}, HostId{1}, 100 + step);
        sim->post_cross(1, sim->now() + TimeNs{delay(step)}, dst, std::move(pkt));
        const std::int64_t next = gap(step);
        if (++step < kSteps) sim->after(TimeNs{next}, [this] { fire(); });
      }
    } chain{&sim, &log, +delay_of, +gap_of};
    {
      const auto scope = sim.scoped(0);
      sim.at(TimeNs{10'000}, [&chain] { chain.fire(); });
    }
    for (std::int64_t until = 100'000'000; until < t; until += 100'000'000) {
      sim.run_until(TimeNs{until});
    }
    sim.run();
    EXPECT_EQ(log.arrivals, expected) << "exec " << static_cast<int>(exec);
    EXPECT_EQ(sim.shard_crossings_out(0), static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(sim.shard_events_processed(1), static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(CalendarQueue, FifoTieBreakSurvivesOverflowMigration) {
  Simulator sim;
  std::vector<int> order;
  // All at the same instant, but scheduled on both sides of the near-horizon
  // window: the first batch goes to the overflow tier, then the clock moves
  // close enough that the second batch lands in the ring directly.  FIFO
  // order must still hold across the tiers.
  const TimeNs t{1'000'000};  // 1 ms out: beyond the ~0.5 ms window
  for (int i = 0; i < 5; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  sim.run_until(TimeNs{900'000});  // now the target is inside the window
  for (int i = 5; i < 10; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(CalendarQueue, CursorRewindsForEarlierEvent) {
  Simulator sim;
  std::vector<int> order;
  // Peeking at a far event advances the bucket cursor; a later schedule into
  // an earlier (still future) bucket must rewind it or the event is lost.
  sim.at(TimeNs{10'000}, [&order] { order.push_back(1); });
  sim.run_until(TimeNs::zero());  // peeks, advancing the cursor to ~10 us
  sim.at(TimeNs{1'000}, [&order] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(CalendarQueue, RecurringTimerCrossesWindowRepeatedly) {
  Simulator sim;
  // A self-rescheduling timer beyond the window exercises overflow push,
  // migration, and the slab's free list on every tick.
  int ticks = 0;
  struct Timer {
    Simulator& sim;
    int& ticks;
    void fire() {
      if (++ticks >= 200) return;
      sim.after(TimeNs{700'000}, [this] { fire(); });
    }
  } timer{sim, ticks};
  sim.after(TimeNs{700'000}, [&timer] { timer.fire(); });
  sim.run();
  EXPECT_EQ(ticks, 200);
  EXPECT_EQ(sim.now(), TimeNs{200 * 700'000});
  EXPECT_EQ(sim.events_processed(), 200u);
}

TEST(CalendarQueue, SlabStaysAtPeakPending) {
  // Three chains 1-3 ns apart fire 120k events through ~130 adjacent
  // buckets, each of which takes ~900 events before it drains, and
  // a far timer keeps one event in the overflow tier: never more than four
  // pending.  The slab holds events, not bucket history, so it must stay at
  // four slots however many events each bucket takes before it drains.
  constexpr int kEvents = 120'000;
  Simulator sim;
  int fired = 0;
  struct Chain {
    Simulator& sim;
    int& fired;
    std::int64_t step;
    void fire() {
      if (++fired < kEvents) sim.after(TimeNs{step}, [this] { fire(); });
    }
  };
  std::vector<Chain> chains{{sim, fired, 1}, {sim, fired, 2}, {sim, fired, 3},
                            {sim, fired, 700'000}};
  for (Chain& c : chains) sim.at(TimeNs{1}, [&c] { c.fire(); });
  EXPECT_EQ(sim.shard_event_slots(0), 4u);
  for (std::int64_t until = 5'000; fired < kEvents; until += 5'000) {
    sim.run_until(TimeNs{until});
    EXPECT_LE(sim.pending(), 4u);
    ASSERT_EQ(sim.shard_event_slots(0), 4u) << "at " << until << " ns";
  }
  sim.run();
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(fired));
  EXPECT_GE(fired, kEvents);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.shard_event_slots(0), 4u);
}

TEST(CalendarQueue, KeyBuffersFollowBucketsInUse) {
  // 2,048 consecutive 512 ns buckets, twice round the 1,024-bucket ring,
  // each take a burst of 64 events and drain before the next one fills.  A
  // drained bucket's key buffer goes to the shard's spares for the next
  // bucket, so key capacity stays at what is pending, not at 1,024 buffers
  // of each bucket's busiest moment (65,536 keys).
  constexpr int kBuckets = 2'048;
  constexpr int kBurst = 64;
  constexpr std::int64_t kBucketNs = 512;
  Simulator sim;
  int fired = 0;
  std::size_t peak_pending = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t start = b * kBucketNs;
    for (int i = 0; i < kBurst; ++i) {
      sim.at(TimeNs{start + (i * 7) % kBucketNs}, [&fired] { ++fired; });
    }
    peak_pending = std::max(peak_pending, sim.pending());
    ASSERT_LE(sim.shard_key_slots(0), 2 * peak_pending) << "bucket " << b;
    sim.run_until(TimeNs{start + kBucketNs - 1});
    ASSERT_EQ(sim.pending(), 0u);
  }
  EXPECT_EQ(fired, kBuckets * kBurst);
  EXPECT_EQ(peak_pending, static_cast<std::size_t>(kBurst));
  EXPECT_LE(sim.shard_key_slots(0), 2u * kBurst);
}

TEST(CalendarQueue, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.at(TimeNs{100}, [&order] { order.push_back(0); });
  sim.at(TimeNs{200}, [&order] { order.push_back(1); });
  sim.at(TimeNs{201}, [&order] { order.push_back(2); });
  sim.run_until(TimeNs{200});
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), TimeNs{200});
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace ufab::sim
