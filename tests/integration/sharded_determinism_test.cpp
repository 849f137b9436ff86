// The sharded engine's equivalence guarantee, end to end: a fig17-style
// workload run under UFAB_SHARDS=1, =2, and =4 must produce bit-identical
// statistics and event counts, and a 4-shard run must not care whether its
// epochs execute sequentially or on worker threads.  This is the regression
// gate for the conservative-lookahead parallel engine (DESIGN.md §9).
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.hpp"
#include "src/workload/sources.hpp"

namespace ufab {
namespace {

using harness::Experiment;
using harness::Scheme;

constexpr TimeNs kRun{2'000'000};    // 2 ms of offered load
constexpr TimeNs kDrain{1'000'000};  // +1 ms drain

/// Everything observable a run produces.  Doubles are compared exactly: the
/// schedule is deterministic, so even the bits must match.
struct Snapshot {
  std::vector<double> pair_rates_gbps;
  std::vector<double> fct_us;
  double dissatisfaction_pct = 0.0;
  std::int64_t drops = 0;
  std::uint64_t events = 0;

  bool operator==(const Snapshot&) const = default;
};

/// Scoped setenv: restores the previous value (or unsets) on destruction, so
/// a failing assertion cannot leak shard settings into later tests.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// `pin_links` pins every link to the two-event serializer before traffic —
/// the reference the fused pipelines must reproduce.  `windows` > 0 sets the
/// lookahead windows per epoch barrier on the experiment's simulator.
Snapshot run_tiny_fig17(Scheme scheme, std::uint64_t seed, bool pin_links = false,
                        int windows = 0) {
  Experiment exp(
      scheme,
      [](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_fat_tree(s, 4, 1, o);
      },
      {}, {}, seed);
  auto& fab = exp.fab();
  auto& vms = fab.vms();
  if (windows > 0) fab.sim().set_epoch_windows(windows);
  if (pin_links) {
    for (sim::Link* link : fab.net().links()) link->pin_legacy();
  }

  std::vector<VmPairId> pairs;
  Rng pair_rng = fab.rng().fork("pairs");
  const int hosts = static_cast<int>(fab.net().host_count());
  const TenantId tid = vms.add_tenant("T0", Bandwidth::gbps(1.0));
  std::vector<VmId> tvms;
  for (int h = 0; h < hosts; ++h) tvms.push_back(vms.add_vm(tid, HostId{h}));
  for (int h = 0; h < hosts; ++h) {
    int peer = static_cast<int>(pair_rng.below(static_cast<std::uint64_t>(hosts)));
    if (peer == h) peer = (peer + 1) % hosts;
    pairs.push_back(
        VmPairId{tvms[static_cast<std::size_t>(h)], tvms[static_cast<std::size_t>(peer)]});
  }

  workload::PoissonFlowGenerator::Config gcfg;
  gcfg.target_load = 0.5;
  gcfg.stop = kRun;
  workload::PoissonFlowGenerator gen(fab, pairs, workload::EmpiricalSizeDist::websearch(), gcfg,
                                     fab.rng().fork("flows"));
  fab.sim().run_until(kRun + kDrain);

  Snapshot snap;
  for (const VmPairId& p : pairs) {
    snap.pair_rates_gbps.push_back(exp.pair_rate_gbps(p, TimeNs::zero(), kRun));
  }
  snap.fct_us = gen.recorder().fct_us().sorted();
  snap.dissatisfaction_pct = gen.recorder().violation_volume_pct();
  snap.drops = exp.total_drops();
  snap.events = fab.sim().events_processed();
  return snap;
}

/// `shards == nullptr` leaves UFAB_SHARDS unset: the plain serial engine.
Snapshot run_with_shards(const char* shards, const char* exec, Scheme scheme,
                         std::uint64_t seed, int windows = 0, bool pin_links = false) {
  EnvGuard g1("UFAB_SHARDS", shards);
  EnvGuard g2("UFAB_SHARD_EXEC", exec);
  return run_tiny_fig17(scheme, seed, pin_links, windows);
}

TEST(ShardedDeterminism, OneTwoFourEightShardsAreBitIdentical) {
  const Snapshot one = run_with_shards("1", nullptr, Scheme::kUfab, 41);
  ASSERT_FALSE(one.fct_us.empty()) << "workload produced no completed flows";
  EXPECT_GT(one.events, 0u);
  const Snapshot two = run_with_shards("2", nullptr, Scheme::kUfab, 41);
  const Snapshot four = run_with_shards("4", nullptr, Scheme::kUfab, 41);
  // k=4 has eight edge subtrees, so 8 shards cuts below the agg tier.
  const Snapshot eight = run_with_shards("8", nullptr, Scheme::kUfab, 41);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(ShardedDeterminism, ThreadedExecutionMatchesSequential) {
  const Snapshot seq = run_with_shards("4", "seq", Scheme::kUfab, 41);
  const Snapshot thr = run_with_shards("4", "threads", Scheme::kUfab, 41);
  ASSERT_FALSE(seq.fct_us.empty());
  EXPECT_EQ(seq, thr);
}

TEST(ShardedDeterminism, AdaptiveEpochsAreScheduleNeutral) {
  // One barrier per lookahead window is the reference; multi-window epochs
  // (any width, either executor) must reproduce it bit for bit.
  const Snapshot one = run_with_shards("4", "seq", Scheme::kUfab, 41, 1);
  ASSERT_FALSE(one.fct_us.empty());
  EXPECT_EQ(one, run_with_shards("4", "seq", Scheme::kUfab, 41, 4));
  EXPECT_EQ(one, run_with_shards("4", "seq", Scheme::kUfab, 41, 16));
  EXPECT_EQ(one, run_with_shards("4", "threads", Scheme::kUfab, 41, 16));
  EXPECT_EQ(one, run_with_shards("8", "threads", Scheme::kUfab, 41, 16));
  EXPECT_EQ(one, run_with_shards("8", "seq", Scheme::kUfab, 41, 1));
}

TEST(ShardedDeterminism, PlainEngineMatchesOneShard) {
  // No UFAB_SHARDS at all is the same engine as UFAB_SHARDS=1: one ordering
  // mode, one schedule, byte-identical results and event counts.
  const Snapshot plain = run_with_shards(nullptr, nullptr, Scheme::kUfab, 41);
  ASSERT_FALSE(plain.fct_us.empty());
  EXPECT_EQ(plain, run_with_shards("1", nullptr, Scheme::kUfab, 41));
  EXPECT_EQ(plain, run_with_shards("4", "threads", Scheme::kUfab, 41));
}

TEST(ShardedDeterminism, FusedLinksMatchLegacySerializerBitForBit) {
  // Every link pinned to the two-event serializer is the reference; with
  // fused pipelines (the default) every observable statistic must survive
  // byte for byte — only the event count may change, and it must shrink.
  auto run_fused = [](const char* shards, const char* exec, bool pinned) {
    return run_with_shards(shards, exec, Scheme::kUfab, 41, 0, pinned);
  };
  const Snapshot legacy = run_fused("1", nullptr, true);
  const Snapshot fused = run_fused("1", nullptr, false);
  ASSERT_FALSE(fused.fct_us.empty());
  EXPECT_EQ(fused.pair_rates_gbps, legacy.pair_rates_gbps);
  EXPECT_EQ(fused.fct_us, legacy.fct_us);
  EXPECT_EQ(fused.dissatisfaction_pct, legacy.dissatisfaction_pct);
  EXPECT_EQ(fused.drops, legacy.drops);
  EXPECT_LT(fused.events, legacy.events);  // the point of fusing

  // The fused schedule is itself partition- and executor-invariant...
  EXPECT_EQ(fused, run_fused("4", "seq", false));
  EXPECT_EQ(fused, run_fused("4", "threads", false));
  // ...and so is the pinned reference.
  EXPECT_EQ(legacy, run_fused("4", "threads", true));
}

TEST(ShardedDeterminism, HoldsAcrossSchemesAndSeeds) {
  struct Variant {
    Scheme scheme;
    std::uint64_t seed;
  };
  for (const Variant v : {Variant{Scheme::kPwc, 41}, Variant{Scheme::kEsClove, 41},
                          Variant{Scheme::kUfab, 42}}) {
    const Snapshot one = run_with_shards("1", nullptr, v.scheme, v.seed);
    const Snapshot four = run_with_shards("4", nullptr, v.scheme, v.seed);
    EXPECT_EQ(one, four) << "scheme diverged under 4 shards (seed " << v.seed << ")";
  }
}

}  // namespace
}  // namespace ufab
