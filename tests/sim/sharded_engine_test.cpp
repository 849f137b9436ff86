// Sharded-engine semantics: canonical ordering (single- and multi-shard),
// cross-shard packet handoff timing and packet memory, the mailbox's entry
// lifetimes, and the core equivalence claim — a threaded epoch run fires the
// exact same schedule as a sequential one.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/profiler.hpp"
#include "src/sim/node.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/shard_sync.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

TEST(ShardedEngine, CanonicalSingleShardKeepsRootFifoOrder) {
  Simulator sim;
  sim.configure_shards(1, TimeNs::max());
  ASSERT_TRUE(sim.canonical_order());
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    sim.at(TimeNs{100}, [i, &fired] { fired.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.events_processed(), 8u);
}

TEST(ShardedEngine, CanonicalChildrenKeepCreationOrder) {
  Simulator sim;
  sim.configure_shards(1, TimeNs::max());
  std::vector<int> fired;
  sim.at(TimeNs{50}, [&sim, &fired] {
    for (int i = 0; i < 6; ++i) {
      sim.at(TimeNs{200}, [i, &fired] { fired.push_back(i); });
    }
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

class RecordingNode final : public Node {
 public:
  RecordingNode(Simulator& sim, std::int32_t id) : Node(NodeId{id}, "rec"), sim_(sim) {}
  void receive(PacketPtr pkt) override {
    arrivals.emplace_back(sim_.now().ns(), pkt->size_bytes);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> arrivals;

 private:
  Simulator& sim_;
};

TEST(ShardedEngine, CrossShardHandoffDeliversAtPostedTime) {
  Simulator sim;
  sim.configure_shards(2, TimeNs{1000}, ShardExec::kSequential);
  ASSERT_EQ(sim.shard_count(), 2);
  RecordingNode dst(sim, 0);
  {
    const auto scope = sim.scoped(0);
    sim.at(TimeNs{100}, [&sim, &dst] {
      // Wire-exit at t=100, one propagation delay (== lookahead) later on
      // the far shard: the earliest legal crossing.
      auto pkt = make_packet(sim.packet_pool(), PacketKind::kData, VmPairId{VmId{1}, VmId{2}},
                             TenantId{0}, HostId{0}, HostId{1}, 1500);
      sim.post_cross(1, TimeNs{1100}, &dst, std::move(pkt));
    });
  }
  sim.run_until(TimeNs{5000});
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(dst.arrivals[0].first, 1100);
  EXPECT_EQ(dst.arrivals[0].second, 1500);
  EXPECT_EQ(sim.shard_crossings_out(0), 1u);
  EXPECT_EQ(sim.shard_crossings_out(1), 0u);
  EXPECT_GE(sim.shard_events_processed(1), 1u);
  EXPECT_EQ(sim.now(), TimeNs{5000});
}

/// A deterministic two-shard workload: per shard, a self-rescheduling chain
/// that periodically fires a packet across to the other shard.  The trace —
/// (time, payload) per shard — plus the engine counters must be identical
/// however the epochs execute.
struct TwoShardRun {
  std::vector<std::pair<std::int64_t, std::int64_t>> arrivals[2];
  std::vector<std::int64_t> chain_times[2];
  std::uint64_t events = 0;
  std::uint64_t posted[2] = {0, 0};     ///< Crossings each chain posted.
  std::uint64_t crossings[2] = {0, 0};  ///< shard_crossings_out per chain shard.
  std::int64_t final_now = 0;
  std::int64_t clock[2] = {0, 0};  ///< Each shard's clock after the run.
  // Profiled runs only:
  std::uint64_t dispatched = 0;  ///< Dispatch-category calls.
  double run_wall_ns = 0;        ///< Attributed run wall time.
  std::uint64_t epochs = 0;      ///< Coordinator barriers.
  std::uint64_t windows = 0;     ///< Rungs walked.
  std::string profile;           ///< profile_json().
};

constexpr std::int64_t kLookahead = 1000;
constexpr TimeNs kEnd{40'000};  ///< run_two_shard_workload's horizon.

/// Every unsigned value of `"key": N` in `json`, in document order.
std::vector<std::uint64_t> json_uints(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::vector<std::uint64_t> out;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    out.push_back(std::stoull(json.substr(at + needle.size())));
  }
  return out;
}

/// Sum of both dispatch-category call counts over every shard slice.
std::uint64_t dispatch_count(const Simulator& sim) {
  std::uint64_t n = 0;
  for (int s = 0; s < sim.shard_count(); ++s) {
    const obs::ProfSlice& sl = sim.profiler()->slice(s);
    n += sl.count[static_cast<std::size_t>(obs::ProfCat::kDispatchDeliver)] +
         sl.count[static_cast<std::size_t>(obs::ProfCat::kDispatchClosure)];
  }
  return n;
}

/// `shards == 1` is the serial reference: both chains on one plain engine,
/// each crossing a local delivery under the same child key.  With more
/// shards the chains run on shards 0 and 1 and the rest idle.  `drain` runs
/// with run() instead of run_until(kEnd).
TwoShardRun run_two_shard_workload(ShardExec exec, int shards = 2, bool drain = false,
                                   bool profiled = false) {
  Simulator sim;
  if (shards > 1) sim.configure_shards(shards, TimeNs{kLookahead}, exec);
  if (profiled) {
    obs::ProfOptions popts;
    popts.level = 1;
    sim.enable_profiling(popts);
  }
  TwoShardRun out;
  RecordingNode* nodes[2] = {new RecordingNode(sim, 0), new RecordingNode(sim, 1)};

  // One chain per shard; steps deliberately misaligned with the epoch length
  // so events straddle boundaries.  Every third step posts a crossing that
  // lands exactly one lookahead later on the peer shard.
  struct Chain {
    Simulator* sim;
    RecordingNode* peer;
    int self;
    std::vector<std::int64_t>* times;
    std::uint64_t* posted;
    int step = 0;
    void fire() {
      times->push_back(sim->now().ns());
      ++step;
      if (step % 3 == 0) {
        ++*posted;
        auto pkt =
            make_packet(sim->packet_pool(), PacketKind::kData, VmPairId{VmId{1}, VmId{2}},
                        TenantId{0}, HostId{0}, HostId{1}, 64 * self + step);
        if (sim->shard_count() == 1) {
          sim->after(TimeNs{kLookahead}, DeliverEvent{peer, std::move(pkt)});
        } else {
          sim->post_cross(1 - self, sim->now() + TimeNs{kLookahead}, peer, std::move(pkt));
        }
      }
      if (sim->now() < TimeNs{30'000}) {
        sim->after(TimeNs{self == 0 ? 331 : 457}, [this] { fire(); });
      }
    }
  };
  auto* chains = new Chain[2];
  for (int s = 0; s < 2; ++s) {
    chains[s] = Chain{&sim, nodes[1 - s], s, &out.chain_times[s], &out.posted[s]};
    const auto scope = sim.scoped(s % shards);
    sim.at(TimeNs{10 + s}, [chain = &chains[s]] { chain->fire(); });
  }
  if (drain) {
    sim.run();
  } else {
    sim.run_until(kEnd);
  }

  for (int s = 0; s < 2; ++s) {
    out.arrivals[s] = nodes[s]->arrivals;
    if (shards > 1) out.crossings[s] = sim.shard_crossings_out(s);
    const auto scope = sim.scoped(s % shards);
    out.clock[s] = sim.now().ns();
  }
  out.events = sim.events_processed();
  out.final_now = sim.now().ns();
  if (profiled) {
    out.dispatched = dispatch_count(sim);
    out.run_wall_ns = sim.profiler()->run_wall_ns();
    out.epochs = sim.profiler()->epochs();
    out.windows = sim.profiler()->windows();
    out.profile = sim.profile_json();
  }
  delete[] chains;
  delete nodes[0];
  delete nodes[1];
  return out;
}

/// The time of the last event that ran on shard `s` (its last chain step or
/// its last arrival).
std::int64_t last_event(const TwoShardRun& r, int s) {
  std::int64_t last = r.chain_times[s].empty() ? 0 : r.chain_times[s].back();
  if (!r.arrivals[s].empty()) last = std::max(last, r.arrivals[s].back().first);
  return last;
}

TEST(ShardedEngine, ThreadedEpochsMatchSequentialExactly) {
  const TwoShardRun seq = run_two_shard_workload(ShardExec::kSequential);
  const TwoShardRun thr = run_two_shard_workload(ShardExec::kThreads);
  // The workload actually exercised both shards and the mailboxes.
  ASSERT_GT(seq.chain_times[0].size(), 10u);
  ASSERT_GT(seq.chain_times[1].size(), 10u);
  ASSERT_GT(seq.crossings[0], 0u);
  ASSERT_GT(seq.crossings[1], 0u);
  ASSERT_FALSE(seq.arrivals[0].empty());
  ASSERT_FALSE(seq.arrivals[1].empty());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(seq.chain_times[s], thr.chain_times[s]) << "shard " << s;
    EXPECT_EQ(seq.arrivals[s], thr.arrivals[s]) << "shard " << s;
    EXPECT_EQ(seq.crossings[s], thr.crossings[s]) << "shard " << s;
  }
  EXPECT_EQ(seq.events, thr.events);
  EXPECT_EQ(seq.final_now, thr.final_now);
}

TEST(ShardedEngine, EveryExecutorAndShardCountMatchesOneShard) {
  // The 1-shard run is the reference: both executors, on two shards and on
  // four (two of them idle), fire its schedule and stop every clock at the
  // horizon.  The rung ladder changes only *when* shards synchronize, never
  // what runs between synchronizations (DESIGN.md §12).
  const TwoShardRun serial = run_two_shard_workload(ShardExec::kSequential, /*shards=*/1);
  ASSERT_GT(serial.chain_times[0].size(), 10u);
  ASSERT_FALSE(serial.arrivals[0].empty());
  ASSERT_FALSE(serial.arrivals[1].empty());
  for (const int shards : {2, 4}) {
    for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
      const TwoShardRun run = run_two_shard_workload(exec, shards);
      for (int s = 0; s < 2; ++s) {
        EXPECT_EQ(serial.chain_times[s], run.chain_times[s]) << shards << " shards, shard " << s;
        EXPECT_EQ(serial.arrivals[s], run.arrivals[s]) << shards << " shards, shard " << s;
        EXPECT_EQ(run.clock[s], kEnd.ns()) << shards << " shards, shard " << s;
      }
      EXPECT_EQ(serial.events, run.events) << shards << " shards";
      EXPECT_EQ(serial.final_now, run.final_now) << shards << " shards";
    }
  }
}

TEST(ShardedEngine, AdaptiveEpochsAmortizeBarriers) {
  // Same workload, profiled: a pass walks up to 16 rungs per coordinator
  // barrier, so reaching the horizon takes at most a quarter as many
  // barriers as the horizon spans lookaheads, at four or more rungs each.
  const TwoShardRun run =
      run_two_shard_workload(ShardExec::kSequential, 2, /*drain=*/false, /*profiled=*/true);
  ASSERT_GT(run.epochs, 0u);
  EXPECT_LE(run.epochs * 4, static_cast<std::uint64_t>(kEnd.ns() / kLookahead))
      << run.epochs << " barriers";
  EXPECT_GE(run.windows, 4 * run.epochs)
      << run.windows << " rungs over " << run.epochs << " barriers";
}

TEST(ShardedEngine, CrossingsAreCountedOnceFromTheMailboxes) {
  // A shard's crossing count is its outgoing mailboxes' post count: it equals
  // what the workload posted, the profile's per-shard crossings_out reports
  // it, and their sum is the profile's epochs.crossings_injected.
  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    const TwoShardRun run = run_two_shard_workload(exec, 2, /*drain=*/false, /*profiled=*/true);
    ASSERT_GT(run.posted[0], 0u);
    ASSERT_GT(run.posted[1], 0u);
    const std::vector<std::uint64_t> out = json_uints(run.profile, "crossings_out");
    ASSERT_EQ(out.size(), 2u);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(run.crossings[s], run.posted[s]) << "shard " << s;
      EXPECT_EQ(out[static_cast<std::size_t>(s)], run.posted[s]) << "shard " << s;
    }
    EXPECT_EQ(json_uints(run.profile, "crossings_injected"),
              std::vector<std::uint64_t>{out[0] + out[1]});
  }
}

TEST(ShardedEngine, DrainMatchesSerialRun) {
  // run() on a cut-link engine fires the serial run's schedule on either
  // executor.  A serial drain leaves now() at the last event, and so does a
  // sharded one on every shard, although window boundaries parked the clocks
  // past it mid-run.
  const TwoShardRun serial =
      run_two_shard_workload(ShardExec::kSequential, /*shards=*/1, /*drain=*/true);
  ASSERT_GT(serial.chain_times[0].size(), 10u);
  ASSERT_FALSE(serial.arrivals[0].empty());
  ASSERT_FALSE(serial.arrivals[1].empty());
  EXPECT_EQ(serial.final_now, std::max(last_event(serial, 0), last_event(serial, 1)));
  std::int64_t seq_clock[2] = {0, 0};
  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    const TwoShardRun run = run_two_shard_workload(exec, 2, /*drain=*/true);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(serial.chain_times[s], run.chain_times[s]) << "shard " << s;
      EXPECT_EQ(serial.arrivals[s], run.arrivals[s]) << "shard " << s;
      EXPECT_GT(run.crossings[s], 0u);
      EXPECT_NE(run.clock[s], TimeNs::max().ns()) << "shard " << s;
      EXPECT_GE(run.clock[s], last_event(run, s)) << "shard " << s;
      EXPECT_EQ(run.clock[s], serial.final_now) << "shard " << s;
      if (exec == ShardExec::kSequential) {
        seq_clock[s] = run.clock[s];
      } else {
        EXPECT_EQ(seq_clock[s], run.clock[s]) << "shard " << s;
      }
    }
    EXPECT_EQ(serial.events, run.events);
  }
}

TEST(ShardedEngine, ProfiledDrainAttributesEveryEvent) {
  // A profiled run() — serial, and on both executors of a cut-link engine —
  // sends every event through the attribution step, accounts its run wall
  // time, and fires the unprofiled schedule.
  const TwoShardRun plain =
      run_two_shard_workload(ShardExec::kSequential, /*shards=*/1, /*drain=*/true);
  struct Config {
    int shards;
    ShardExec exec;
  };
  for (const Config c : {Config{1, ShardExec::kSequential}, Config{2, ShardExec::kSequential},
                         Config{2, ShardExec::kThreads}}) {
    const TwoShardRun run = run_two_shard_workload(c.exec, c.shards, true, /*profiled=*/true);
    EXPECT_EQ(run.dispatched, run.events) << c.shards << " shards";
    EXPECT_GT(run.run_wall_ns, 0.0) << c.shards << " shards";
    EXPECT_EQ(plain.events, run.events);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(plain.chain_times[s], run.chain_times[s]) << "shard " << s;
      EXPECT_EQ(plain.arrivals[s], run.arrivals[s]) << "shard " << s;
    }
  }
}

TEST(ShardedEngine, UncutDrainLeavesClocksAtLastEvents) {
  // No cut links (lookahead == TimeNs::max()): the shards are causally
  // independent.  A drain with work on one shard or on both runs every event,
  // leaves every clock — an idle shard's too — at the latest event any shard
  // ran (the plain engine's now()), and notes no epoch: an unbounded pass
  // spans no finite epoch.
  struct Tick {
    Simulator* sim;
    std::vector<std::int64_t>* fired;
    std::int64_t step_ns;
    void fire() {
      fired->push_back(sim->now().ns());
      if (fired->size() < 20) sim->after(TimeNs{step_ns}, [this] { fire(); });
    }
  };
  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    for (const int active : {1, 2}) {
      Simulator sim;
      sim.configure_shards(2, TimeNs::max(), exec);
      obs::ProfOptions popts;
      popts.level = 1;
      sim.enable_profiling(popts);
      std::vector<std::int64_t> fired[2];
      Tick ticks[2] = {Tick{&sim, &fired[0], 700}, Tick{&sim, &fired[1], 1100}};
      // With one active shard the work sits on shard 1, so the drain is not
      // just the coordinator's own shard.
      for (int s = 2 - active; s < 2; ++s) {
        const auto scope = sim.scoped(s);
        sim.at(TimeNs{5 + s}, [tick = &ticks[s]] { tick->fire(); });
      }
      sim.run();
      EXPECT_EQ(sim.events_processed(), 20u * static_cast<std::uint64_t>(active));
      EXPECT_EQ(dispatch_count(sim), sim.events_processed());
      EXPECT_EQ(sim.profiler()->epochs(), 0u);
      std::int64_t expected = 0;
      for (const auto& f : fired) {
        if (!f.empty()) expected = std::max(expected, f.back());
      }
      for (int s = 0; s < 2; ++s) {
        const auto scope = sim.scoped(s);
        EXPECT_EQ(sim.now().ns(), expected) << "shard " << s << ", " << active << " active";
      }
    }
  }
}

/// A chain on shard 0 stepping every 400 ns from `first` to `t - L`, whose
/// last step posts a crossing to shard 1 that lands at exactly `t`.
/// `shards == 1` is the serial reference: the crossing is a local delivery
/// under the same child key.
struct HorizonRun {
  std::vector<std::int64_t> chain;
  std::vector<std::pair<std::int64_t, std::int64_t>> arrivals;
  std::int64_t clock[2] = {0, 0};
  std::uint64_t events = 0;
  std::size_t pending = 0;
};

HorizonRun run_to_horizon(int shards, ShardExec exec, std::int64_t first, std::int64_t t) {
  Simulator sim;
  if (shards > 1) sim.configure_shards(shards, TimeNs{kLookahead}, exec);
  HorizonRun out;
  RecordingNode sink(sim, 1);
  struct Stepper {
    Simulator* sim;
    RecordingNode* sink;
    std::vector<std::int64_t>* times;
    std::int64_t final_step;
    void fire() {
      const TimeNs now = sim->now();
      times->push_back(now.ns());
      if (now.ns() < final_step) {
        sim->after(TimeNs{std::min<std::int64_t>(400, final_step - now.ns())}, [this] { fire(); });
        return;
      }
      auto pkt = make_packet(sim->packet_pool(), PacketKind::kData, VmPairId{VmId{1}, VmId{2}},
                             TenantId{0}, HostId{0}, HostId{1}, 777);
      if (sim->shard_count() == 1) {
        sim->after(TimeNs{kLookahead}, DeliverEvent{sink, std::move(pkt)});
      } else {
        sim->post_cross(1, now + TimeNs{kLookahead}, sink, std::move(pkt));
      }
    }
  };
  Stepper stepper{&sim, &sink, &out.chain, t - kLookahead};
  sim.at(TimeNs{first}, [&stepper] { stepper.fire(); });
  sim.run_until(TimeNs{t});
  out.arrivals = sink.arrivals;
  for (int s = 0; s < 2; ++s) {
    const auto scope = sim.scoped(s % shards);
    out.clock[s] = sim.now().ns();
  }
  out.events = sim.events_processed();
  out.pending = sim.pending();
  return out;
}

TEST(ShardedEngine, HorizonRungFiresCrossingsLandingAtTheHorizon) {
  // The rung that reaches t runs events at exactly t, so a crossing posted
  // one lookahead earlier fires inside run_until(t) on both executors, and
  // every clock ends at t.  Three ladders: t - base a multiple of L, not a
  // multiple, and more rungs than one pass holds (16), so the horizon rung
  // runs in the second pass.
  struct Case {
    std::int64_t first;
    std::int64_t t;
  };
  for (const Case c : {Case{100, 100 + 4 * kLookahead}, Case{100, 100 + 3 * kLookahead + 250},
                       Case{100, 100 + 20 * kLookahead + 333}}) {
    const HorizonRun serial = run_to_horizon(1, ShardExec::kSequential, c.first, c.t);
    ASSERT_EQ(serial.arrivals.size(), 1u);
    EXPECT_EQ(serial.arrivals[0].first, c.t);
    for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
      const HorizonRun run = run_to_horizon(2, exec, c.first, c.t);
      EXPECT_EQ(run.chain, serial.chain) << "t=" << c.t;
      EXPECT_EQ(run.arrivals, serial.arrivals) << "t=" << c.t;
      EXPECT_EQ(run.events, serial.events) << "t=" << c.t;
      EXPECT_EQ(run.pending, 0u) << "t=" << c.t;
      for (int s = 0; s < 2; ++s) EXPECT_EQ(run.clock[s], c.t) << "shard " << s << ", t=" << c.t;
    }
  }
}

TEST(ShardedEngine, RunUntilTheCurrentClockRunsEventsAtIt) {
  // Setup code may schedule at exactly now() after run_until(t) returned; a
  // second run_until(t) runs it, as the serial engine does.
  struct Config {
    int shards;
    ShardExec exec;
  };
  for (const Config c : {Config{1, ShardExec::kSequential}, Config{2, ShardExec::kSequential},
                         Config{2, ShardExec::kThreads}}) {
    Simulator sim;
    if (c.shards > 1) sim.configure_shards(c.shards, TimeNs{kLookahead}, c.exec);
    sim.run_until(TimeNs{5'000});
    std::vector<std::int64_t> fired;
    {
      const auto scope = sim.scoped(c.shards - 1);
      sim.at(TimeNs{5'000}, [&sim, &fired] { fired.push_back(sim.now().ns()); });
    }
    sim.run_until(TimeNs{5'000});
    EXPECT_EQ(fired, std::vector<std::int64_t>{5'000}) << c.shards << " shards";
  }
}

/// Receives crossings on shard 0 and answers each with one local follow-up.
class EchoNode final : public Node {
 public:
  EchoNode(Simulator& sim, std::int32_t id) : Node(NodeId{id}, "echo"), sim_(sim) {}
  void receive(PacketPtr pkt) override {
    arrivals.emplace_back(sim_.now().ns(), pkt->size_bytes);
    sim_.after(TimeNs{50}, [this] { followups.push_back(sim_.now().ns()); });
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> arrivals;
  std::vector<std::int64_t> followups;

 private:
  Simulator& sim_;
};

TEST(ShardedEngine, OneBusyShardMatchesSerialRun) {
  // Cut links, every chain step on shard 1, and shard 0 woken only by the
  // crossings it receives: the run fires the serial schedule on both
  // executors, with run_until and with run(), and leaves every clock equal.
  struct Trace {
    std::vector<std::int64_t> chain;
    std::vector<std::pair<std::int64_t, std::int64_t>> arrivals;
    std::vector<std::int64_t> followups;
    std::uint64_t events = 0;
    std::int64_t clock[2] = {0, 0};
  };
  const auto run = [](int shards, ShardExec exec, bool drain) {
    Simulator sim;
    if (shards > 1) sim.configure_shards(shards, TimeNs{kLookahead}, exec);
    Trace out;
    EchoNode echo(sim, 0);
    struct Chain {
      Simulator* sim;
      EchoNode* echo;
      std::vector<std::int64_t>* times;
      void fire() {
        times->push_back(sim->now().ns());
        if (times->size() % 4 == 0) {
          auto pkt = make_packet(sim->packet_pool(), PacketKind::kData,
                                 VmPairId{VmId{1}, VmId{2}}, TenantId{0}, HostId{1}, HostId{0},
                                 static_cast<std::int32_t>(times->size()));
          if (sim->shard_count() == 1) {
            sim->after(TimeNs{kLookahead}, DeliverEvent{echo, std::move(pkt)});
          } else {
            sim->post_cross(0, sim->now() + TimeNs{kLookahead}, echo, std::move(pkt));
          }
        }
        if (sim->now() < TimeNs{20'000}) sim->after(TimeNs{300}, [this] { fire(); });
      }
    };
    Chain chain{&sim, &echo, &out.chain};
    {
      const auto scope = sim.scoped(shards > 1 ? 1 : 0);
      sim.at(TimeNs{10}, [&chain] { chain.fire(); });
    }
    if (drain) {
      sim.run();
    } else {
      sim.run_until(TimeNs{30'000});
    }
    out.arrivals = echo.arrivals;
    out.followups = echo.followups;
    out.events = sim.events_processed();
    for (int s = 0; s < 2; ++s) {
      const auto scope = sim.scoped(s % shards);
      out.clock[s] = sim.now().ns();
    }
    return out;
  };
  for (const bool drain : {false, true}) {
    const Trace serial = run(1, ShardExec::kSequential, drain);
    ASSERT_GT(serial.arrivals.size(), 10u);
    ASSERT_EQ(serial.followups.size(), serial.arrivals.size());
    for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
      const Trace sharded = run(2, exec, drain);
      EXPECT_EQ(sharded.chain, serial.chain) << "drain=" << drain;
      EXPECT_EQ(sharded.arrivals, serial.arrivals) << "drain=" << drain;
      EXPECT_EQ(sharded.followups, serial.followups) << "drain=" << drain;
      EXPECT_EQ(sharded.events, serial.events) << "drain=" << drain;
      for (int s = 0; s < 2; ++s) {
        EXPECT_EQ(sharded.clock[s], serial.clock[0]) << "shard " << s << ", drain=" << drain;
      }
    }
  }
}

/// Consumes every packet it receives: each goes back to its pool at once.
class SinkNode final : public Node {
 public:
  SinkNode() : Node(NodeId{1}, "sink") {}
  void receive(PacketPtr /*pkt*/) override { ++received; }
  std::uint64_t received = 0;
};

TEST(ShardedEngine, OneWayStreamKeepsEveryPoolSmallAndBalanced) {
  // 50,000 packets cross one way, shard 0 to shard 1, into a node that
  // consumes them.  Only copies cross, so each pool holds about what is in
  // flight (a few hundred packets) rather than what the stream carried; and
  // the originals the writer had not released when run() returns are back
  // in shard 0's pool, so every pool balances.
  constexpr std::uint64_t kPackets = 50'000;
  constexpr std::size_t kChunkPackets = 256;
  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    Simulator sim;
    sim.configure_shards(2, TimeNs{kLookahead}, exec);
    SinkNode sink;
    struct Source {
      Simulator* sim;
      Node* sink;
      std::uint64_t sent = 0;
      void fire() {
        auto pkt = make_packet(sim->packet_pool(), PacketKind::kData, VmPairId{VmId{1}, VmId{2}},
                               TenantId{0}, HostId{0}, HostId{1}, 1500);
        sim->post_cross(1, sim->now() + TimeNs{kLookahead}, sink, std::move(pkt));
        if (++sent < kPackets) sim->after(TimeNs{10}, [this] { fire(); });
      }
    };
    Source source{&sim, &sink};
    sim.at(TimeNs{10}, [&source] { source.fire(); });
    sim.run();
    EXPECT_EQ(sink.received, kPackets);
    for (int s = 0; s < 2; ++s) {
      const PacketPool& pool = sim.shard_pool(s);
      EXPECT_GT(pool.allocated(), 0u) << "shard " << s;
      EXPECT_EQ(pool.allocated(), pool.free_count()) << "shard " << s;
      EXPECT_LE(pool.allocated(), 4 * kChunkPackets) << "shard " << s;
    }
  }
}

TEST(ShardedEngine, SetupAndSameShardScopingStayLegal) {
  // Scoping from setup code, and from an event onto its own shard, are the
  // two legal uses of scoped(); the event's follow-up lands on that shard.
  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    Simulator sim;
    sim.configure_shards(2, TimeNs{kLookahead}, exec);
    std::vector<std::int64_t> fired;
    {
      const auto scope = sim.scoped(1);
      sim.at(TimeNs{10}, [&sim, &fired] {
        const auto same = sim.scoped(1);
        sim.after(TimeNs{5}, [&sim, &fired] { fired.push_back(sim.now().ns()); });
      });
    }
    sim.run();
    EXPECT_EQ(fired, std::vector<std::int64_t>{15});
    EXPECT_EQ(sim.shard_events_processed(1), 2u);
  }
}

TEST(ShardedEngineDeathTest, EventScopedOntoAnotherShardDies) {
  // What an event schedules on another shard would bypass the epoch
  // protocol, so scoped() refuses it before anything is scheduled.
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.configure_shards(2, TimeNs{kLookahead}, ShardExec::kSequential);
        sim.at(TimeNs{10}, [&sim] {
          const auto other = sim.scoped(1);
          sim.after(TimeNs{5}, [] {});
        });
        sim.run();
      },
      "an event scoped onto another shard");
}

/// A mailbox payload that owns entry `*p` the way a crossing owns its
/// packet: destroying what it owns counts one release of that entry.
struct CountRelease {
  std::vector<int>* releases = nullptr;
  void operator()(const int* p) const {
    ++(*releases)[static_cast<std::size_t>(*p)];
    delete p;
  }
};
using Owned = std::unique_ptr<int, CountRelease>;

Owned owned(std::vector<int>& releases, int entry) {
  return Owned{new int{entry}, CountRelease{&releases}};
}

TEST(ShardMailboxUnit, PostDrainKeepsOrderAndCounts) {
  // A drain takes only its own rung's batch, in post order.  The writer may
  // already be posting the next rung into the other batch, which that drain
  // leaves alone.
  ShardMailbox<int> box;
  for (int i = 0; i < 5; ++i) box.post(1, int{i});
  box.post(2, 10);
  box.post(2, 11);
  EXPECT_EQ(box.posted_total(), 7u);
  EXPECT_EQ(box.batches(), 2u);
  EXPECT_EQ(box.size(), 7u);
  std::vector<int> got;
  const auto take = [&got](int v) { got.push_back(v); };
  // Rung 3 shares rung 1's batch but posted nothing: its drain takes nothing.
  EXPECT_EQ(box.drain(3, take), 0u);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(box.drain(1, take), 5u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(box.size(), 2u);
  got.clear();
  EXPECT_EQ(box.drain(2, take), 2u);
  EXPECT_EQ(got, (std::vector<int>{10, 11}));
  EXPECT_EQ(box.size(), 0u);
  EXPECT_EQ(box.drains(), 2u);
  EXPECT_EQ(box.max_drain_batch(), 5u);
  // Rung 3 reuses rung 1's batch, and its drain sees only its own post.
  got.clear();
  box.post(3, 7);
  EXPECT_EQ(box.drain(3, take), 1u);
  EXPECT_EQ(got, std::vector<int>{7});
  EXPECT_EQ(box.posted_total(), 8u);
  EXPECT_EQ(box.batches(), 3u);
  EXPECT_EQ(box.drains(), 3u);
  EXPECT_EQ(box.max_drain_batch(), 5u);
}

TEST(ShardMailboxUnit, DrainedEntriesLiveUntilTheWriterReleasesThem) {
  // A drain hands entries over by reference and leaves them in their batch.
  // They live until the writer's first post of a later rung of the same
  // parity, however many rungs later; between runs the coordinator's clear()
  // releases the rest.
  std::vector<int> releases(8, 0);
  ShardMailbox<Owned> box;
  for (int i = 0; i < 3; ++i) box.post(1, owned(releases, i));
  std::vector<int> seen;
  const auto read = [&seen](const Owned& v) { seen.push_back(*v); };
  EXPECT_EQ(box.drain(1, read), 3u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  box.post(2, owned(releases, 3));
  EXPECT_EQ(box.drain(2, read), 1u);
  EXPECT_EQ(box.drain(3, read), 0u);  // rung 3 posts nothing
  EXPECT_EQ(releases, (std::vector<int>{0, 0, 0, 0, 0, 0, 0, 0}));
  box.post(4, owned(releases, 4));  // reuses rung 2's batch
  EXPECT_EQ(releases, (std::vector<int>{0, 0, 0, 1, 0, 0, 0, 0}));
  box.post(5, owned(releases, 5));  // reuses rung 1's batch
  EXPECT_EQ(releases, (std::vector<int>{1, 1, 1, 1, 0, 0, 0, 0}));
  EXPECT_EQ(box.drain(4, read), 1u);
  EXPECT_EQ(box.drain(5, read), 1u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(releases, (std::vector<int>{1, 1, 1, 1, 0, 0, 0, 0}));
  box.clear();
  EXPECT_EQ(releases, (std::vector<int>{1, 1, 1, 1, 1, 1, 0, 0}));
  box.clear();  // nothing left to release
  box.post(6, owned(releases, 6));
  EXPECT_EQ(releases, (std::vector<int>{1, 1, 1, 1, 1, 1, 0, 0}));
}

TEST(ShardMailboxUnit, UndrainedEntriesAreReleasedOnlyByTheDestructor) {
  std::vector<int> releases(8, 0);
  {
    ShardMailbox<Owned> box;
    for (int i = 0; i < 3; ++i) box.post(1, owned(releases, i));
    box.drain(1, [](const Owned&) {});
    // Rung 2's entries are never drained.  Posts and drains of the other
    // parity and clear() leave them where they are.
    for (int i = 3; i < 6; ++i) box.post(2, owned(releases, i));
    box.post(3, owned(releases, 6));
    box.drain(3, [](const Owned&) {});
    box.clear();
    box.post(5, owned(releases, 7));
    EXPECT_EQ(releases, (std::vector<int>{1, 1, 1, 0, 0, 0, 1, 0}));
    EXPECT_EQ(box.size(), 4u);
  }
  EXPECT_EQ(releases, (std::vector<int>{1, 1, 1, 1, 1, 1, 1, 1}));
}

TEST(ShardMailboxUnit, EveryEntryIsHandedOverOnceAndReleasedOnce) {
  // 400 rungs of 0-127 entries, each rung posted and then drained as the
  // ladder does: every entry reaches the reader once, in post order and
  // before its release, and is released exactly once by the final clear().
  constexpr int kRungs = 400;
  std::mt19937 rng(29);
  std::uniform_int_distribution<int> batch_size(0, 127);
  std::vector<int> releases(kRungs * 128, 0);
  std::vector<int> handed(releases.size(), 0);
  ShardMailbox<Owned> box;
  int next = 0;
  std::uint64_t non_empty = 0;
  for (std::int64_t rung = 1; rung <= kRungs; ++rung) {
    const int first = next;
    const int n = batch_size(rng);
    for (int i = 0; i < n; ++i) box.post(rung, owned(releases, next++));
    non_empty += n > 0 ? 1 : 0;
    int expect = first;
    const std::size_t got = box.drain(rung, [&](const Owned& v) {
      const auto e = static_cast<std::size_t>(*v);
      EXPECT_EQ(*v, expect++);
      EXPECT_EQ(releases[e], 0);
      ++handed[e];
    });
    ASSERT_EQ(got, static_cast<std::size_t>(n)) << "rung " << rung;
    ASSERT_EQ(expect, next) << "rung " << rung;
  }
  box.clear();
  for (int e = 0; e < next; ++e) {
    ASSERT_EQ(handed[static_cast<std::size_t>(e)], 1) << "entry " << e;
    ASSERT_EQ(releases[static_cast<std::size_t>(e)], 1) << "entry " << e;
  }
  EXPECT_EQ(box.posted_total(), static_cast<std::uint64_t>(next));
  EXPECT_EQ(box.batches(), non_empty);
  EXPECT_EQ(box.drains(), non_empty);
  EXPECT_EQ(box.size(), 0u);
}

#ifndef NDEBUG
TEST(ShardMailboxDeathTest, ReusingAnUndrainedBatchDies) {
  // Rung 1's batch was never drained, so rung 3's first post, which would
  // release it, fails loudly instead of dropping its crossings.
  EXPECT_DEATH(
      {
        ShardMailbox<int> box;
        box.post(1, 1);
        box.post(2, 2);
        box.drain(2, [](int) {});
        box.post(3, 3);
      },
      "a post reuses a batch its reader never drained");
}
#endif

}  // namespace
}  // namespace ufab::sim
