// Tests for uFAB-E option paths: reorder-free migration, periodic probing,
// probe-loss handling, finish-probe retries, and uFAB' mode.
#include <gtest/gtest.h>

#include "src/harness/fabric.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"

namespace ufab::edge {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;
using harness::Fabric;

struct World {
  Fabric fab;
  World(const Fabric::Builder& builder, EdgeConfig cfg, std::uint64_t seed = 3)
      : fab(builder, seed) {
    telemetry::CoreConfig core;
    core.clean_period = 1_s;
    fab.instrument_cores(core);
    for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
      const HostId host{static_cast<std::int32_t>(h)};
      fab.adopt_stack(host, std::make_unique<EdgeAgent>(fab.net(), fab.vms(), host, cfg,
                                                        transport::TransportOptions{},
                                                        fab.rng().fork(h)));
    }
    fab.install_pair_metering(1_ms);
  }
  EdgeAgent& edge(HostId h) { return fab.stack_as<EdgeAgent>(h); }
};

Fabric::Builder leaf_spine() {
  return [](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); };
}

TEST(EdgeOptions, ReorderFreeMigrationBlocksDataOneRtt) {
  EdgeConfig cfg;
  cfg.reorder_free_migration = true;
  World w(leaf_spine(), cfg);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 2_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 40_ms);
  // Kill the current spine's fabric links at 10 ms to force a migration.
  w.fab.sim().at(10_ms, [&] {
    auto* conn = w.edge(HostId{0}).ufab_connection(pair);
    ASSERT_NE(conn, nullptr);
    const auto& links = conn->current_path().links;
    for (std::size_t i = 1; i + 1 < links.size(); ++i) {
      w.fab.net().link(links[i])->set_down(true);
    }
  });
  w.fab.sim().run_until(40_ms);
  auto* conn = w.edge(HostId{0}).ufab_connection(pair);
  ASSERT_NE(conn, nullptr);
  EXPECT_GE(w.edge(HostId{0}).migrations(), 1);
  // The reorder-free gate was armed at migration time.
  EXPECT_GT(conn->data_blocked_until.ns(), 0);
  // And traffic recovered afterwards.
  EXPECT_GT(w.fab.pair_meter(pair)->trailing_rate(40_ms, 10).gbit_per_sec(), 5.0);
}

TEST(EdgeOptions, PeriodicProbeModeKeepsWindowFresh) {
  EdgeConfig cfg;
  cfg.probe_mode = ProbeMode::kPeriodic;
  cfg.periodic_rtts = 2.0;
  World w(leaf_spine(), cfg);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 2_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 20_ms);
  w.fab.sim().run_until(20_ms);
  auto& e = w.edge(HostId{0});
  // Roughly one probe per 2 RTTs (~36 us at this scale): over 20 ms that is
  // in the hundreds, far fewer than the per-L_m adaptive rate at 9 Gbps.
  EXPECT_GT(e.probes_sent(), 150);
  EXPECT_LT(e.probes_sent(), 900);
  EXPECT_GT(w.fab.pair_meter(pair)->trailing_rate(20_ms, 10).gbit_per_sec(), 8.0);
}

TEST(EdgeOptions, ProbeTimeoutsCountedOnDeadPath) {
  World w(leaf_spine(), EdgeConfig{});
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 2_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 30_ms);
  // Kill *all* spine links: no path survives, probes keep timing out.
  w.fab.sim().at(5_ms, [&] {
    for (sim::Link* l : w.fab.net().links()) {
      if (l->name().find("Spine") != std::string::npos) l->set_down(true);
    }
  });
  w.fab.sim().run_until(30_ms);
  EXPECT_GT(w.edge(HostId{0}).probe_timeouts(), 2);
}

TEST(EdgeOptions, UfabPrimeSkipsBootstrap) {
  EdgeConfig cfg;
  cfg.two_stage_admission = false;
  World w(leaf_spine(), cfg);
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.send(pair, 500'000);
  w.fab.sim().run_until(100_us);
  auto* conn = w.edge(HostId{0}).ufab_connection(pair);
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->bootstrap);
  // uFAB' starts at a full line-rate BDP, not the guarantee BDP.
  EXPECT_GT(conn->window, Bandwidth::gbps(5).bdp_bytes(conn->base_rtt));
}

TEST(EdgeOptions, BootstrapWindowStartsAtGuaranteeBdp) {
  World w(leaf_spine(), EdgeConfig{});
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.send(pair, 500'000);
  // Inspect immediately, before the first probe response arrives.
  w.fab.sim().run_until(TimeNs{2000});
  auto* conn = w.edge(HostId{0}).ufab_connection(pair);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->bootstrap);
  const double guarantee_bdp = Bandwidth::gbps(1).bdp_bytes(conn->base_rtt);
  EXPECT_LE(conn->window, std::max(guarantee_bdp, 3000.0) + 1.0);
}

TEST(EdgeOptions, FinishProbeRetriesSurviveLossyPath) {
  // An idle pair deregisters even when its finish probe must be retried
  // (path flaps while the finish is in flight).
  World w(leaf_spine(), EdgeConfig{});
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.send(pair, 100'000);
  // Flap the whole fabric briefly right around the idle-finish timeout.
  w.fab.sim().at(1_ms, [&] {
    for (sim::Link* l : w.fab.net().links()) {
      if (l->name().find("Spine") != std::string::npos) l->set_down(true);
    }
  });
  w.fab.sim().at(3_ms, [&] {
    for (sim::Link* l : w.fab.net().links()) l->set_down(false);
  });
  w.fab.sim().run_until(80_ms);
  double total_phi = 0.0;
  for (const auto& agent : w.fab.core_agents()) total_phi += agent->phi_total();
  EXPECT_NEAR(total_phi, 0.0, 1.0);
}

TEST(EdgeOptions, ConfigDefaultsMatchPaper) {
  const EdgeConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.eta, 0.95);                       // §5.1 target utilization
  EXPECT_EQ(cfg.probe_interval_bytes, 4096);             // §5.4 L_m = 4 KB
  EXPECT_EQ(cfg.token_update_period.ns(), 32'000);       // §5.1 token period
  EXPECT_EQ(cfg.violation_threshold, 5);                 // §3.5, 5 RTTs
  EXPECT_EQ(cfg.freeze_window_max_rtts, 10);             // §5.6, [1,10]
  EXPECT_DOUBLE_EQ(cfg.probe_timeout_rtts, 8.0);         // §4.1
  EXPECT_TRUE(cfg.two_stage_admission);
}

}  // namespace
}  // namespace ufab::edge
