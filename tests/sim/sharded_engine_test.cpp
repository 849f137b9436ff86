// Sharded-engine semantics: canonical ordering (single- and multi-shard),
// cross-shard packet handoff timing, and the core equivalence claim — a
// threaded epoch run fires the exact same schedule as a sequential one.
#include <algorithm>
#include <cstdint>
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
  std::uint64_t crossings[2] = {0, 0};
  std::int64_t final_now = 0;
  std::int64_t clock[2] = {0, 0};  ///< Each shard's clock after the run.
  std::uint64_t dispatched = 0;    ///< Profiled runs: dispatch-category calls.
  double run_wall_ns = 0;          ///< Profiled runs: attributed run wall time.
};

constexpr std::int64_t kLookahead = 1000;

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
/// each crossing a local delivery under the same child key.  `drain` runs
/// with run() instead of run_until().  A non-null `epochs_out` profiles the
/// run.
TwoShardRun run_two_shard_workload(ShardExec exec, int windows = 16,
                                   std::uint64_t* epochs_out = nullptr, int shards = 2,
                                   bool drain = false) {
  constexpr TimeNs kEnd{40'000};
  Simulator sim;
  if (shards > 1) sim.configure_shards(shards, TimeNs{kLookahead}, exec);
  sim.set_epoch_windows(windows);
  if (epochs_out != nullptr) {
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
    int step = 0;
    void fire() {
      times->push_back(sim->now().ns());
      ++step;
      if (step % 3 == 0) {
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
    chains[s] = Chain{&sim, nodes[1 - s], s, &out.chain_times[s]};
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
  if (epochs_out != nullptr) {
    *epochs_out = sim.profiler()->epochs();
    out.dispatched = dispatch_count(sim);
    out.run_wall_ns = sim.profiler()->run_wall_ns();
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

TEST(ShardedEngine, AdaptiveEpochsAreScheduleNeutral) {
  // Every (windows, exec) combination must fire the identical schedule:
  // multi-window epochs only change *when barriers happen*, never what runs
  // between them (DESIGN.md §12).
  const TwoShardRun base = run_two_shard_workload(ShardExec::kSequential, 1);
  ASSERT_GT(base.chain_times[0].size(), 10u);
  struct Combo {
    ShardExec exec;
    int windows;
  };
  for (const Combo c : {Combo{ShardExec::kSequential, 4}, Combo{ShardExec::kSequential, 16},
                        Combo{ShardExec::kThreads, 1}, Combo{ShardExec::kThreads, 4},
                        Combo{ShardExec::kThreads, 16}}) {
    const TwoShardRun run = run_two_shard_workload(c.exec, c.windows);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(base.chain_times[s], run.chain_times[s])
          << "windows=" << c.windows << " shard " << s;
      EXPECT_EQ(base.arrivals[s], run.arrivals[s]) << "shard " << s;
      EXPECT_EQ(base.crossings[s], run.crossings[s]) << "shard " << s;
    }
    EXPECT_EQ(base.events, run.events);
    EXPECT_EQ(base.final_now, run.final_now);
  }
}

TEST(ShardedEngine, AdaptiveEpochsAmortizeBarriers) {
  // Same workload, profiled: 16-window epochs must reach the horizon with
  // several-fold fewer coordinator barriers than one window per epoch (this
  // is the whole point of multi-window epochs).
  std::uint64_t one = 0;
  std::uint64_t sixteen = 0;
  const TwoShardRun a = run_two_shard_workload(ShardExec::kSequential, 1, &one);
  const TwoShardRun b = run_two_shard_workload(ShardExec::kSequential, 16, &sixteen);
  EXPECT_EQ(a.events, b.events);
  ASSERT_GT(one, 0u);
  ASSERT_GT(sixteen, 0u);
  EXPECT_LE(sixteen * 4, one)
      << "16-window epochs should amortize >=4x fewer barriers (windows=1: " << one
      << ", windows=16: " << sixteen << ")";
}

TEST(ShardedEngine, DrainMatchesSerialRun) {
  // run() on a cut-link engine fires the serial run's schedule on either
  // executor.  A serial drain leaves now() at the last event, and so does a
  // sharded one on every shard, although window boundaries parked the clocks
  // past it mid-run.
  const TwoShardRun serial =
      run_two_shard_workload(ShardExec::kSequential, 16, nullptr, /*shards=*/1, /*drain=*/true);
  ASSERT_GT(serial.chain_times[0].size(), 10u);
  ASSERT_FALSE(serial.arrivals[0].empty());
  ASSERT_FALSE(serial.arrivals[1].empty());
  EXPECT_EQ(serial.final_now, std::max(last_event(serial, 0), last_event(serial, 1)));
  std::int64_t seq_clock[2] = {0, 0};
  for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
    const TwoShardRun run = run_two_shard_workload(exec, 16, nullptr, 2, /*drain=*/true);
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
      run_two_shard_workload(ShardExec::kSequential, 16, nullptr, /*shards=*/1, /*drain=*/true);
  struct Config {
    int shards;
    ShardExec exec;
  };
  for (const Config c : {Config{1, ShardExec::kSequential}, Config{2, ShardExec::kSequential},
                         Config{2, ShardExec::kThreads}}) {
    std::uint64_t epochs = 0;
    const TwoShardRun run = run_two_shard_workload(c.exec, 16, &epochs, c.shards, true);
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

HorizonRun run_to_horizon(int shards, ShardExec exec, std::int64_t first, std::int64_t t,
                          int windows) {
  Simulator sim;
  if (shards > 1) sim.configure_shards(shards, TimeNs{kLookahead}, exec);
  sim.set_epoch_windows(windows);
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
  // multiple, and more rungs than one pass holds.
  struct Case {
    std::int64_t first;
    std::int64_t t;
    int windows;
  };
  for (const Case c :
       {Case{100, 100 + 4 * kLookahead, 16}, Case{100, 100 + 3 * kLookahead + 250, 16},
        Case{100, 100 + 6 * kLookahead + 333, 2}}) {
    const HorizonRun serial = run_to_horizon(1, ShardExec::kSequential, c.first, c.t, c.windows);
    ASSERT_EQ(serial.arrivals.size(), 1u);
    EXPECT_EQ(serial.arrivals[0].first, c.t);
    for (const ShardExec exec : {ShardExec::kSequential, ShardExec::kThreads}) {
      const HorizonRun run = run_to_horizon(2, exec, c.first, c.t, c.windows);
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

TEST(ShardMailboxUnit, PostFlushDrainKeepsOrderAndCounts) {
  ShardMailbox<int> box;
  for (int i = 0; i < 5; ++i) box.post(int{i});
  EXPECT_EQ(box.posted_total(), 5u);
  std::vector<int> got;
  const auto take = [&got](int v) { got.push_back(v); };
  // Nothing published yet: a drain sees an empty mailbox.
  box.drain(take);
  EXPECT_TRUE(got.empty());
  box.flush();
  EXPECT_EQ(box.flushes(), 1u);
  box.drain(take);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(box.max_drain_batch(), 5u);
  EXPECT_EQ(box.size(), 0u);
  // A second flush with nothing new published is a no-op (no release store).
  box.flush();
  EXPECT_EQ(box.flushes(), 1u);
  got.clear();
  box.post(7);
  box.flush();
  box.drain(take);
  EXPECT_EQ(got, std::vector<int>{7});
  EXPECT_EQ(box.posted_total(), 6u);
  EXPECT_EQ(box.max_drain_batch(), 5u);
}

TEST(ShardMailboxUnit, BatchesSpanChunksAndRewind) {
  ShardMailbox<int> box;
  // More than one 64-item chunk in a single batch, across enough cycles that
  // the positions go round the chunk ring (16384 entries) twice.
  std::uint64_t total = 0;
  std::vector<int> got;
  for (int round = 0; round < 200; ++round) {
    const int n = 100 + round;  // straddles chunk boundaries at every offset
    for (int i = 0; i < n; ++i) box.post(round * 1000 + i);
    box.flush();
    got.clear();
    box.drain([&got](int v) { got.push_back(v); });
    ASSERT_EQ(static_cast<int>(got.size()), n) << "round " << round;
    ASSERT_EQ(got.front(), round * 1000);
    ASSERT_EQ(got.back(), round * 1000 + n - 1);
    total += static_cast<std::uint64_t>(n);
    ASSERT_EQ(box.size(), 0u);
  }
  EXPECT_EQ(box.posted_total(), total);
  EXPECT_GE(box.max_drain_batch(), 100u);
}

}  // namespace
}  // namespace ufab::sim
