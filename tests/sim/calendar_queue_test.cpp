// The calendar-queue future-event list must be observationally identical to
// the straightforward reference: a priority queue over the canonical
// (time, h, k) key.  These tests drive both through the same randomized
// schedules — including events scheduled from inside running events,
// far-horizon events that live in the overflow tier, and same-time bursts —
// and require the exact same firing order.
#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/time.hpp"
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
  std::vector<int> drain(const ChildFn& child_fn) {
    std::vector<int> order;
    while (!heap_.empty()) {
      const Ref top = heap_.top();
      heap_.pop();
      order.push_back(top.label);
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
  // migration, and the overflow tier's slot-recycling path on every tick.
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
