// Sharded-engine semantics: canonical ordering (single- and multi-shard),
// cross-shard packet handoff timing, and the core equivalence claim — a
// threaded epoch run fires the exact same schedule as a sequential one.
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
};

TwoShardRun run_two_shard_workload(ShardExec exec, int windows = 16,
                                   std::uint64_t* epochs_out = nullptr) {
  constexpr std::int64_t kLookahead = 1000;
  constexpr TimeNs kEnd{40'000};
  Simulator sim;
  sim.configure_shards(2, TimeNs{kLookahead}, exec);
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
        sim->post_cross(1 - self, sim->now() + TimeNs{kLookahead}, peer, std::move(pkt));
      }
      if (sim->now() < TimeNs{30'000}) {
        sim->after(TimeNs{self == 0 ? 331 : 457}, [this] { fire(); });
      }
    }
  };
  auto* chains = new Chain[2];
  for (int s = 0; s < 2; ++s) {
    chains[s] = Chain{&sim, nodes[1 - s], s, &out.chain_times[s]};
    const auto scope = sim.scoped(s);
    sim.at(TimeNs{10 + s}, [chain = &chains[s]] { chain->fire(); });
  }
  sim.run_until(kEnd);

  for (int s = 0; s < 2; ++s) {
    out.arrivals[s] = nodes[s]->arrivals;
    out.crossings[s] = sim.shard_crossings_out(s);
  }
  out.events = sim.events_processed();
  out.final_now = sim.now().ns();
  if (epochs_out != nullptr) *epochs_out = sim.profiler()->epochs();
  delete[] chains;
  delete nodes[0];
  delete nodes[1];
  return out;
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
  EXPECT_TRUE(box.quiesced_empty());
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
  // More than one 64-item chunk in a single batch, across several cycles so
  // the quiesced rewind path runs too.
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
    ASSERT_TRUE(box.quiesced_empty());
    box.maybe_reset();
  }
  EXPECT_EQ(box.posted_total(), total);
  EXPECT_GE(box.max_drain_batch(), 100u);
}

}  // namespace
}  // namespace ufab::sim
