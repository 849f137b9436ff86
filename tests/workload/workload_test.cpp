// Tests for distributions, traffic sources and application models.
#include <gtest/gtest.h>

#include "src/harness/schemes.hpp"
#include "src/workload/apps.hpp"
#include "src/workload/distributions.hpp"
#include "src/workload/sources.hpp"

namespace ufab::workload {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;
using harness::Fabric;
using harness::Scheme;

TEST(Distributions, KeyValueMeanAroundTwoKb) {
  const auto dist = EmpiricalSizeDist::key_value();
  EXPECT_GT(dist.mean_bytes(), 1000.0);
  EXPECT_LT(dist.mean_bytes(), 4000.0);
  Rng rng(1);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(dist.sample(rng));
  EXPECT_NEAR(sum / n, dist.mean_bytes(), dist.mean_bytes() * 0.05);
}

TEST(Distributions, WebsearchIsHeavyTailed) {
  const auto dist = EmpiricalSizeDist::websearch();
  Rng rng(2);
  PercentileTracker t;
  for (int i = 0; i < 50'000; ++i) t.add(static_cast<double>(dist.sample(rng)));
  EXPECT_LT(t.median(), 120'000.0);       // most flows are small
  EXPECT_GT(t.percentile(99), 3'000'000.0);  // the tail carries megabytes
}

TEST(Distributions, SamplesWithinSupport) {
  const auto dist = EmpiricalSizeDist::websearch();
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const auto s = dist.sample(rng);
    EXPECT_GE(s, 6'000);
    EXPECT_LE(s, 20'000'000);
  }
}

TEST(Distributions, PoissonArrivalsHitTargetLoad) {
  PoissonArrivals arr(0.5, 10e9, 100'000.0);
  // mean gap = 100KB*8 / (0.5*10G) = 160 us.
  EXPECT_NEAR(arr.mean_gap_sec(), 160e-6, 1e-9);
}

struct AppWorld {
  Fabric fab;
  explicit AppWorld(Scheme s, int left, int right, std::uint64_t seed = 21)
      : fab([s, left, right](sim::Simulator& sim2) {
          return topo::make_dumbbell(sim2, left, right,
                                     harness::fabric_options_for(s, {}));
        },
        seed) {
    install_scheme(fab, s);
    fab.install_pair_metering(1_ms);
  }
};

TEST(OnOff, AlternatesBetweenPacedAndBacklogged) {
  AppWorld w(Scheme::kUfab, 1, 1);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{1})};
  OnOffSource::Config cfg;
  cfg.period = 4_ms;
  cfg.limited_rate = 500_Mbps;
  cfg.stop = 16_ms;
  OnOffSource src(w.fab, pair, cfg);
  w.fab.sim().run_until(20_ms);
  RateMeter* m = w.fab.pair_meter(pair);
  ASSERT_NE(m, nullptr);
  // Phase 1 (0-4 ms): paced at 500 Mbps. Phase 2 (4-8 ms): line rate.
  const auto series = m->series(16_ms);
  double phase1 = 0.0;
  double phase2 = 0.0;
  for (const auto& s : series) {
    if (s.at >= 1_ms && s.at < 4_ms) phase1 = std::max(phase1, s.rate.gbit_per_sec());
    if (s.at >= 5_ms && s.at < 8_ms) phase2 = std::max(phase2, s.rate.gbit_per_sec());
  }
  EXPECT_LT(phase1, 1.0);
  EXPECT_GT(phase2, 5.0);
}

TEST(FlowRecorderTest, TracksFctAndSlowdown) {
  FlowRecorder rec;
  rec.on_start(1, 0_us, 100e-6, 50'000);  // expected 100 us
  rec.on_delivery(1, 200_us);             // actual 200 us => slowdown 2
  rec.on_start(2, 0_us, 50e-6, 1'000);
  rec.on_delivery(2, 50_us);  // slowdown 1
  rec.on_delivery(99, 1_ms);  // unknown tag ignored
  EXPECT_EQ(rec.completed(), 2u);
  EXPECT_DOUBLE_EQ(rec.slowdown().max(), 2.0);
  EXPECT_DOUBLE_EQ(rec.fct_us().max(), 200.0);
  const auto small = rec.slowdown_for_sizes(0, 10'000);
  EXPECT_EQ(small.count(), 1u);
  EXPECT_DOUBLE_EQ(small.max(), 1.0);
}

TEST(PoissonGenerator, CompletesFlowsNearTargetLoad) {
  AppWorld w(Scheme::kUfab, 2, 2);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 2_Gbps);
  const VmId a = vms.add_vm(t, HostId{0});
  const VmId b = vms.add_vm(t, HostId{1});
  const VmId c = vms.add_vm(t, HostId{2});
  const VmId d = vms.add_vm(t, HostId{3});
  PoissonFlowGenerator::Config cfg;
  cfg.target_load = 0.3;
  cfg.stop = 30_ms;
  PoissonFlowGenerator gen(w.fab, {VmPairId{a, c}, VmPairId{b, d}},
                           EmpiricalSizeDist::key_value(), cfg, w.fab.rng().fork("gen"));
  w.fab.sim().run_until(60_ms);
  EXPECT_GT(gen.recorder().started(), 100u);
  // Nearly all flows complete well after the generator stops.
  EXPECT_GT(static_cast<double>(gen.recorder().completed()),
            0.95 * static_cast<double>(gen.recorder().started()));
}

TEST(PoissonGeneratorDeathTest, UnboundedStopDiesAtConstruction) {
  // The generator draws its whole arrival schedule when it is built, so the
  // default stop time, TimeNs::max(), fails loudly instead of being accepted.
  EXPECT_DEATH(
      {
        AppWorld w(Scheme::kUfab, 2, 2);
        auto& vms = w.fab.vms();
        const TenantId t = vms.add_tenant("A", 2_Gbps);
        const VmId a = vms.add_vm(t, HostId{0});
        const VmId c = vms.add_vm(t, HostId{2});
        PoissonFlowGenerator gen(w.fab, {VmPairId{a, c}}, EmpiricalSizeDist::key_value(),
                                 PoissonFlowGenerator::Config{}, w.fab.rng().fork("gen"));
      },
      "PoissonFlowGenerator needs a finite stop time");
}

TEST(Rpc, MemcachedClosedLoopCompletesQueries) {
  AppWorld w(Scheme::kUfab, 2, 2);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("mc", 2_Gbps);
  const VmId c1 = vms.add_vm(t, HostId{0});
  const VmId c2 = vms.add_vm(t, HostId{1});
  const VmId s1 = vms.add_vm(t, HostId{2});
  const VmId s2 = vms.add_vm(t, HostId{3});
  RpcApp app(w.fab, {c1, c2}, {s1, s2}, RpcApp::memcached(0_ms, 40_ms, 3),
             w.fab.rng().fork("mc"));
  w.fab.sim().run_until(50_ms);
  EXPECT_GT(app.completed(), 200);
  EXPECT_GT(app.qps(10_ms, 40_ms), 5'000.0);
  // Unloaded fabric: QCT should be tens of microseconds at the median.
  EXPECT_LT(app.qct_us().median(), 200.0);
}

TEST(Rpc, MongodbMovesBulkData) {
  AppWorld w(Scheme::kUfab, 1, 1);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("mongo", 2_Gbps);
  const VmId c = vms.add_vm(t, HostId{0});
  const VmId s = vms.add_vm(t, HostId{1});
  RpcApp app(w.fab, {c}, {s}, RpcApp::mongodb(0_ms, 40_ms, 4), w.fab.rng().fork("mg"));
  w.fab.sim().run_until(50_ms);
  // 500 KB at ~9.5 Gbps is ~420 us per query: expect tens of queries.
  EXPECT_GT(app.completed(), 40);
}

TEST(Ebs, PipelineReplicatesBlocks) {
  AppWorld w(Scheme::kUfab, 4, 4);
  auto& vms = w.fab.vms();
  const TenantId sa_t = vms.add_tenant("SA", 2_Gbps);
  const TenantId ba_t = vms.add_tenant("BA", 6_Gbps);
  const TenantId gc_t = vms.add_tenant("GC", 1_Gbps);
  std::vector<VmId> sas;
  std::vector<VmId> bas;
  std::vector<VmId> css;
  std::vector<VmId> gcs;
  for (int i = 0; i < 4; ++i) sas.push_back(vms.add_vm(sa_t, HostId{i}));
  for (int i = 0; i < 4; ++i) {
    bas.push_back(vms.add_vm(ba_t, HostId{4 + i}));
    css.push_back(vms.add_vm(ba_t, HostId{4 + ((i + 1) % 4)}));
    gcs.push_back(vms.add_vm(gc_t, HostId{4 + i}));
  }
  EbsApp::Config cfg;
  cfg.stop = 20_ms;
  EbsApp app(w.fab, sas, bas, css, gcs, cfg, w.fab.rng().fork("ebs"));
  w.fab.sim().run_until(40_ms);
  // 4 SAs x one block / 320 us x 20 ms = ~250 blocks.
  EXPECT_GT(app.blocks_completed(), 150);
  EXPECT_FALSE(app.sa_tct_ms().empty());
  EXPECT_FALSE(app.ba_tct_ms().empty());
  EXPECT_FALSE(app.total_tct_ms().empty());
  EXPECT_FALSE(app.gc_tct_ms().empty());
  // End-to-end TCT >= SA stage by construction.
  EXPECT_GE(app.total_tct_ms().median(), app.sa_tct_ms().median());
}

}  // namespace
}  // namespace ufab::workload
