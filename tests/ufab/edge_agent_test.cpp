// Integration tests: uFAB edge + informative core on small fabrics.
//
// These exercise the paper's three goals end to end: minimum bandwidth
// guarantee, work conservation, and bounded queueing, plus path migration.
#include <gtest/gtest.h>

#include <set>

#include "src/faults/fault_plane.hpp"
#include "src/harness/fabric.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"

namespace ufab::edge {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;
using harness::Fabric;

telemetry::CoreConfig test_core_config() {
  telemetry::CoreConfig cfg;
  cfg.clean_period = 1_s;
  return cfg;
}

/// Builds a fabric with uFAB agents on every host.
struct UfabWorld {
  Fabric fab;

  explicit UfabWorld(const Fabric::Builder& builder, EdgeConfig cfg = {}, std::uint64_t seed = 7)
      : fab(builder, seed) {
    fab.instrument_cores(test_core_config());
    for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
      const HostId host{static_cast<std::int32_t>(h)};
      fab.adopt_stack(host, std::make_unique<EdgeAgent>(fab.net(), fab.vms(), host, cfg,
                                                        transport::TransportOptions{},
                                                        fab.rng().fork(h)));
    }
    fab.install_pair_metering(1_ms);
  }

  EdgeAgent& edge(HostId h) { return fab.stack_as<EdgeAgent>(h); }

  double pair_rate_gbps(VmPairId pair, TimeNs from, TimeNs to) {
    RateMeter* m = fab.pair_meter(pair);
    if (m == nullptr) return 0.0;
    double bytes = 0.0;
    for (const auto& s : m->series(to)) {
      if (s.at >= from && s.at < to) bytes += s.rate.bytes_per_sec() * m->bucket_width().sec();
    }
    return bytes * 8.0 / 1e9 / (to - from).sec();
  }
};

TEST(UfabIntegration, SinglePairReachesTargetUtilization) {
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); });
  const TenantId t = w.fab.vms().add_tenant("A", 1_Gbps);
  const VmId a = w.fab.vms().add_vm(t, HostId{0});
  const VmId b = w.fab.vms().add_vm(t, HostId{2});  // other side of the trunk
  const VmPairId pair{a, b};
  w.fab.keep_backlogged(pair, 0_ms, 40_ms);
  w.fab.sim().run_until(40_ms);

  // Work conservation: despite a 1 Gbps guarantee, the lone tenant should
  // fill the 10 Gbps trunk to the 95% target.
  const double rate = w.pair_rate_gbps(pair, 20_ms, 40_ms);
  EXPECT_GT(rate, 8.5);
  EXPECT_LT(rate, 10.0);

  // Close-to-zero queueing: the Eqn-3 window caps inflight at the target BDP.
  for (const auto* l : w.fab.net().links()) {
    EXPECT_LT(l->max_queue_bytes(), 40'000) << l->name();
    EXPECT_EQ(l->drops(), 0) << l->name();
  }
}

TEST(UfabIntegration, TokenProportionalSharingOnSharedLink) {
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); });
  auto& vms = w.fab.vms();
  const TenantId big = vms.add_tenant("big", 4_Gbps);
  const TenantId small = vms.add_tenant("small", 2_Gbps);
  const VmPairId p1{vms.add_vm(big, HostId{0}), vms.add_vm(big, HostId{2})};
  const VmPairId p2{vms.add_vm(small, HostId{1}), vms.add_vm(small, HostId{3})};
  w.fab.keep_backlogged(p1, 0_ms, 60_ms);
  w.fab.keep_backlogged(p2, 0_ms, 60_ms);
  w.fab.sim().run_until(60_ms);

  const double r1 = w.pair_rate_gbps(p1, 30_ms, 60_ms);
  const double r2 = w.pair_rate_gbps(p2, 30_ms, 60_ms);
  // Proportional sharing (Eqn 1): 4:2 tokens => 2:1 rates, full utilization.
  EXPECT_NEAR(r1 / r2, 2.0, 0.35);
  EXPECT_GT(r1 + r2, 8.5);
  // Both exceed their minimum guarantees.
  EXPECT_GT(r1, 4.0 * 0.9);
  EXPECT_GT(r2, 2.0 * 0.9);
}

TEST(UfabIntegration, WorkConservationAndFastReclaim) {
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); });
  auto& vms = w.fab.vms();
  const TenantId ta = vms.add_tenant("A", 8_Gbps);
  const TenantId tb = vms.add_tenant("B", 2_Gbps);
  const VmPairId pa{vms.add_vm(ta, HostId{0}), vms.add_vm(ta, HostId{2})};
  const VmPairId pb{vms.add_vm(tb, HostId{1}), vms.add_vm(tb, HostId{3})};
  // B alone first; A joins at 30 ms.
  w.fab.keep_backlogged(pb, 0_ms, 80_ms);
  w.fab.keep_backlogged(pa, 30_ms, 80_ms);
  w.fab.sim().run_until(80_ms);

  // Phase 1: B (2 Gbps guarantee) uses the whole trunk — work conservation.
  EXPECT_GT(w.pair_rate_gbps(pb, 15_ms, 30_ms), 8.0);
  // Phase 2: A reclaims its 8 Gbps guarantee quickly; B falls to ~2 Gbps.
  const double ra = w.pair_rate_gbps(pa, 50_ms, 80_ms);
  const double rb = w.pair_rate_gbps(pb, 50_ms, 80_ms);
  EXPECT_GT(ra, 8.0 * 0.85);
  EXPECT_NEAR(rb, 2.0, 0.8);
}

TEST(UfabIntegration, IncastKeepsQueuesBoundedByThreeBdp) {
  // 6-to-1 incast into one 10G host downlink, distinct tenants.
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 6, 1); });
  auto& vms = w.fab.vms();
  std::vector<VmPairId> pairs;
  for (int i = 0; i < 6; ++i) {
    const TenantId t = vms.add_tenant("T" + std::to_string(i), 1_Gbps);
    pairs.push_back(VmPairId{vms.add_vm(t, HostId{i}), vms.add_vm(t, HostId{6})});
  }
  // All start at exactly the same instant: the worst case of section 3.4.
  for (const auto& p : pairs) w.fab.keep_backlogged(p, 1_ms, 40_ms);
  w.fab.sim().run_until(40_ms);

  // Every tenant converges near its fair share of the 9.5 Gbps target.
  for (const auto& p : pairs) {
    EXPECT_NEAR(w.pair_rate_gbps(p, 20_ms, 40_ms), 9.5 / 6.0, 0.5);
  }
  // The bottleneck (ToR-R -> host) queue stays within ~3x BDP (§3.4).
  const double bdp =
      Bandwidth::gbps(9.5).bdp_bytes(w.fab.net().base_rtt(HostId{0}, HostId{6}));
  for (const auto* l : w.fab.net().links()) {
    EXPECT_LT(static_cast<double>(l->max_queue_bytes()), 3.0 * bdp + 4500.0) << l->name();
    EXPECT_EQ(l->drops(), 0) << l->name();
  }
}

TEST(UfabIntegration, SubscriptionAwareMigrationRestoresGuarantees) {
  // Case-2 style fabric: 2 leaves, 3 spines (3 parallel paths), 4+4 hosts.
  EdgeConfig cfg;
  UfabWorld w([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 3, 4); }, cfg);
  auto& vms = w.fab.vms();
  // Four 4 Gbps VFs crossing the fabric: total 16 Gbps needs at least two of
  // the three 10G spine paths; if chance packs them badly, migration must
  // spread them so every VF gets its guarantee.
  std::vector<VmPairId> pairs;
  for (int i = 0; i < 4; ++i) {
    const TenantId t = vms.add_tenant("VF" + std::to_string(i), 4_Gbps);
    pairs.push_back(VmPairId{vms.add_vm(t, HostId{i}), vms.add_vm(t, HostId{4 + i})});
    w.fab.keep_backlogged(pairs.back(), TimeNs{i * 2'000'000}, 100_ms);
  }
  w.fab.sim().run_until(100_ms);

  for (const auto& p : pairs) {
    EXPECT_GT(w.pair_rate_gbps(p, 60_ms, 100_ms), 4.0 * 0.85) << "pair " << p.src.value();
  }
}

TEST(UfabIntegration, PathFailureTriggersMigration) {
  UfabWorld w([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); });
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 2_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 60_ms);

  // Discover which spine the pair is using at 10 ms, then kill that spine's
  // fabric links (not the host's own uplink/downlink).
  w.fab.sim().at(10_ms, [&] {
    auto* conn = w.edge(HostId{0}).ufab_connection(pair);
    ASSERT_NE(conn, nullptr);
    const auto& path = conn->current_path();
    for (std::size_t i = 1; i + 1 < path.links.size(); ++i) {
      w.fab.net().link(path.links[i])->set_down(true);
    }
  });
  w.fab.sim().run_until(60_ms);

  EXPECT_GE(w.edge(HostId{0}).migrations(), 1);
  // Traffic recovered on the surviving spine.
  EXPECT_GT(w.pair_rate_gbps(pair, 40_ms, 60_ms), 7.0);
}

TEST(UfabIntegration, GuaranteePartitioningAcrossPairsOfOneVm) {
  // One sender VM with a 6 Gbps hose guarantee talking to two peers, while a
  // competing tenant loads the trunk: the two pairs together should claim
  // roughly the VM's 6 Gbps share against the competitor's 3 Gbps.
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 3); });
  auto& vms = w.fab.vms();
  const TenantId ta = vms.add_tenant("A", 6_Gbps);
  const TenantId tb = vms.add_tenant("B", 3_Gbps);
  const VmId a0 = vms.add_vm(ta, HostId{0});
  const VmId a1 = vms.add_vm(ta, HostId{2});
  const VmId a2 = vms.add_vm(ta, HostId{3});
  const VmPairId pa1{a0, a1};
  const VmPairId pa2{a0, a2};
  const VmPairId pb{vms.add_vm(tb, HostId{1}), vms.add_vm(tb, HostId{4})};
  w.fab.keep_backlogged(pa1, 0_ms, 60_ms);
  w.fab.keep_backlogged(pa2, 0_ms, 60_ms);
  w.fab.keep_backlogged(pb, 0_ms, 60_ms);
  w.fab.sim().run_until(60_ms);

  const double ra = w.pair_rate_gbps(pa1, 30_ms, 60_ms) + w.pair_rate_gbps(pa2, 30_ms, 60_ms);
  const double rb = w.pair_rate_gbps(pb, 30_ms, 60_ms);
  EXPECT_NEAR(ra / rb, 2.0, 0.4);  // 6:3 tokens across the tenant's pairs
  EXPECT_GT(ra + rb, 8.5);
}

TEST(UfabIntegration, IdlePairDeregistersFromSwitches) {
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); });
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.send(pair, 100'000);  // one short message, then silence
  w.fab.sim().run_until(50_ms);  // > idle_finish_timeout (10 ms)

  double total_phi = 0.0;
  for (const auto& agent : w.fab.core_agents()) total_phi += agent->phi_total();
  EXPECT_DOUBLE_EQ(total_phi, 0.0);
}

TEST(UfabIntegration, ProbeOverheadIsBounded) {
  UfabWorld w([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); });
  auto& vms = w.fab.vms();
  const TenantId t = vms.add_tenant("A", 1_Gbps);
  const VmPairId pair{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 40_ms);
  w.fab.sim().run_until(40_ms);

  auto& e = w.edge(HostId{0});
  auto* conn = e.ufab_connection(pair);
  ASSERT_NE(conn, nullptr);
  // Probe bytes vs payload bytes: bounded by ~L_p/L_m plus the 1-RTT floor.
  const double overhead = static_cast<double>(e.probe_bytes_sent()) /
                          static_cast<double>(conn->bytes_sent_total);
  EXPECT_LT(overhead, 0.04);
  EXPECT_GT(e.probes_sent(), 100);
}

TEST(UfabIntegration, EveryMessageCompletesThroughEveryArmSite) {
  // The NIC's WFQ visits only armed VM pairs, so a pair that could send but
  // was never re-armed sits backlogged forever.  This run passes through
  // every arm site — new demand, ACKs, RTO requeues under wire loss, window
  // growth on probe responses, and migration under reorder-free migration's
  // time gate — across tenants on several WFQ levels, and every message
  // must still complete.
  EdgeConfig cfg;
  cfg.reorder_free_migration = true;
  UfabWorld w([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 4); }, cfg);
  auto& vms = w.fab.vms();
  // 1, 2 and 4 Gbps guarantees land on three different WFQ levels.
  const TenantId tenants[] = {vms.add_tenant("A", 1_Gbps), vms.add_tenant("B", 2_Gbps),
                              vms.add_tenant("C", 4_Gbps)};
  std::vector<VmPairId> pairs;
  for (int src = 0; src < 4; ++src) {
    for (int k = 0; k < 3; ++k) {
      const TenantId t = tenants[(src + k) % 3];
      const HostId dst{4 + (src + k) % 4};
      pairs.push_back(VmPairId{vms.add_vm(t, HostId{src}), vms.add_vm(t, dst)});
    }
  }

  // Wire loss on one sender's uplink forces RTO requeues.
  faults::FaultPlane plane(w.fab, /*seed=*/5);
  const LinkId uplink = w.fab.net().paths(HostId{0}, HostId{4})[0].links[0];
  plane.loss(uplink, 0.02, faults::LossClass::kDataOnly, 0_ms, 30_ms).arm();

  // Messages of mixed sizes arrive over 30 ms: some to idle pairs (new
  // demand), some on top of a backlog.
  std::set<std::uint64_t> outstanding;
  std::size_t sent = 0;
  w.fab.add_delivery_listener(
      [&](const transport::Message& m, TimeNs) { outstanding.erase(m.id); });
  Rng rng(11);
  for (int i = 0; i < 240; ++i) {
    const VmPairId pair = pairs[rng.below(pairs.size())];
    const auto bytes = static_cast<std::int64_t>(rng.range(2'000, 200'000));
    const TimeNs at{static_cast<std::int64_t>(rng.below(30'000'000))};
    w.fab.sim().at(at, [&, pair, bytes] {
      outstanding.insert(w.fab.send(pair, bytes));
      ++sent;
    });
  }

  // At 10 ms, take down the spine the first pair uses: its pairs lose probes,
  // migrate, and wait out one RTT of reorder-free gating on the new path.
  w.fab.sim().at(10_ms, [&] {
    auto* conn = w.edge(HostId{0}).ufab_connection(pairs[0]);
    ASSERT_NE(conn, nullptr);
    const auto& links = conn->current_path().links;
    for (std::size_t i = 1; i + 1 < links.size(); ++i) {
      w.fab.net().link(links[i])->set_down(true);
    }
  });
  w.fab.sim().run_until(300_ms);

  EXPECT_EQ(sent, 240u);
  EXPECT_TRUE(outstanding.empty()) << outstanding.size() << " messages never completed";
  // Nothing is left queued or in flight at any sender.
  std::int64_t migrations = 0;
  std::int64_t retransmits = 0;
  bool gated = false;
  for (int h = 0; h < 4; ++h) {
    EdgeAgent& e = w.edge(HostId{h});
    migrations += e.migrations();
    retransmits += e.retransmits();
    for (const transport::Connection* c : e.connections()) {
      EXPECT_FALSE(c->has_backlog()) << "host " << h << " pair " << c->pair.src.value();
      EXPECT_EQ(c->inflight_bytes, 0) << "host " << h << " pair " << c->pair.src.value();
      gated |= static_cast<const UfabConnection*>(c)->data_blocked_until > TimeNs::zero();
    }
  }
  // Every arm site was exercised.
  EXPECT_GT(plane.counters().loss_drops, 0);
  EXPECT_GT(retransmits, 0);
  EXPECT_GE(migrations, 1);
  EXPECT_TRUE(gated);
}

}  // namespace
}  // namespace ufab::edge
