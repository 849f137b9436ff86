// Tests for the harness layer: VmMap, Fabric services, experiment metrics
// and the resource model.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/harness/experiment.hpp"
#include "src/topo/builders.hpp"
#include "src/transport/transport.hpp"
#include "src/ufab/resource_model.hpp"

namespace ufab::harness {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

TEST(VmMapTest, PlacementAndGuarantees) {
  VmMap vms;
  const TenantId a = vms.add_tenant("A", 2_Gbps);
  const TenantId b = vms.add_tenant("B", 5_Gbps);
  const VmId v1 = vms.add_vm(a, HostId{0});
  const VmId v2 = vms.add_vm(a, HostId{1});
  const VmId v3 = vms.add_vm(b, HostId{0});
  EXPECT_EQ(vms.host_of(v1), HostId{0});
  EXPECT_EQ(vms.tenant_of(v2), a);
  EXPECT_DOUBLE_EQ(vms.vm_guarantee(v3).gbit_per_sec(), 5.0);
  EXPECT_DOUBLE_EQ(vms.vm_tokens(v1), 2e9);  // B_u = 1 bps
  EXPECT_EQ(vms.vms_of(a).size(), 2u);
  EXPECT_EQ(vms.vms_on(HostId{0}).size(), 2u);
  EXPECT_TRUE(vms.vms_on(HostId{9}).empty());
  EXPECT_EQ(vms.tenant_name(b), "B");
  EXPECT_EQ(vms.vm_count(), 3u);
  EXPECT_EQ(vms.tenant_count(), 2u);
}

TEST(ExperimentTest, MetersAndAggregates) {
  Experiment exp(
      Scheme::kUfab,
      [](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_dumbbell(s, 1, 1, o);
      },
      {}, {}, 9);
  auto& fab = exp.fab();
  const TenantId t = fab.vms().add_tenant("A", 1_Gbps);
  const VmPairId p{fab.vms().add_vm(t, HostId{0}), fab.vms().add_vm(t, HostId{1})};
  fab.keep_backlogged(p, 0_ms, 20_ms);
  fab.sim().run_until(20_ms);

  EXPECT_GT(exp.pair_rate_gbps(p, 10_ms, 20_ms), 8.0);
  EXPECT_NEAR(exp.tenant_rate_gbps(t, 10_ms, 20_ms), exp.pair_rate_gbps(p, 10_ms, 20_ms), 0.01);
  EXPECT_FALSE(exp.aggregate_rtt_us().empty());
  EXPECT_GE(exp.max_queue_bytes(), 0);
  EXPECT_EQ(exp.total_drops(), 0);
}

TEST(ExperimentTest, DissatisfactionRatioSemantics) {
  Experiment exp(
      Scheme::kUfab,
      [](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_dumbbell(s, 2, 2, o);
      },
      {}, {}, 9);
  auto& fab = exp.fab();
  const TenantId t = fab.vms().add_tenant("A", 2_Gbps);
  const VmPairId p{fab.vms().add_vm(t, HostId{0}), fab.vms().add_vm(t, HostId{2})};
  fab.keep_backlogged(p, 0_ms, 20_ms);
  fab.sim().run_until(20_ms);

  // Satisfied guarantee => ~0 ratio.
  const std::vector<GuaranteeSpec> ok{{p, 2e9, 5_ms, 20_ms}};
  EXPECT_LT(dissatisfaction_ratio(fab, ok, 20_ms), 0.02);
  // An absurd guarantee (50G on a 10G trunk) must show heavy dissatisfaction.
  const std::vector<GuaranteeSpec> absurd{{p, 5e10, 5_ms, 20_ms}};
  EXPECT_GT(dissatisfaction_ratio(fab, absurd, 20_ms), 0.5);
  // A pair that never sent anything counts as fully dissatisfied.
  const VmPairId ghost{fab.vms().add_vm(t, HostId{1}), fab.vms().add_vm(t, HostId{3})};
  const std::vector<GuaranteeSpec> ghost_spec{{ghost, 1e9, 0_ms, 20_ms}};
  EXPECT_GT(dissatisfaction_ratio(fab, ghost_spec, 20_ms), 0.9);
}

TEST(ExperimentTest, RateSettleTime) {
  Experiment exp(
      Scheme::kUfab,
      [](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_dumbbell(s, 1, 1, o);
      },
      {}, {}, 9);
  auto& fab = exp.fab();
  const TenantId t = fab.vms().add_tenant("A", 1_Gbps);
  const VmPairId p{fab.vms().add_vm(t, HostId{0}), fab.vms().add_vm(t, HostId{1})};
  fab.keep_backlogged(p, 5_ms, 30_ms);
  fab.sim().run_until(30_ms);
  const TimeNs settle = rate_settle_time(fab, p, 5_ms, 30_ms, 8.0, 10.0, 5_ms);
  ASSERT_NE(settle, TimeNs::max());
  EXPECT_LT((settle - 5_ms).ms(), 3.0);
  // A band the rate never enters never settles.
  EXPECT_EQ(rate_settle_time(fab, p, 5_ms, 30_ms, 0.1, 0.2, 5_ms), TimeNs::max());
}

TEST(ResourceModel, EdgeTableShape) {
  const auto rows = edge::edge_resource_table(8192, 1024);
  ASSERT_EQ(rows.size(), 6u);  // 5 modules + total
  const auto& total = rows.back();
  EXPECT_EQ(total.module, "Total");
  // Paper's operating point: ~10% logic, <20% memory.
  EXPECT_GT(total.lut_pct, 5.0);
  EXPECT_LT(total.lut_pct, 12.0);
  EXPECT_LT(total.bram_pct, 20.0);
  EXPECT_LT(total.uram_pct, 20.0);
  // Memory grows with scale; logic barely.
  const auto big = edge::edge_resource_table(16384, 1024).back();
  EXPECT_GT(big.bram_pct, total.bram_pct);
  EXPECT_LT(big.lut_pct - total.lut_pct, 2.0);
}

TEST(ResourceModel, CoreTableOnlySramGrows) {
  const auto t20 = edge::core_resource_table(20'000);
  const auto t80 = edge::core_resource_table(80'000);
  ASSERT_EQ(t20.size(), t80.size());
  for (std::size_t i = 0; i < t20.size(); ++i) {
    if (t20[i].resource == "SRAM") {
      EXPECT_GT(t80[i].pct, t20[i].pct);
      EXPECT_LT(t80[i].pct - t20[i].pct, 2.0);  // only slightly (the claim)
    } else if (t20[i].resource == "Hash Bits") {
      EXPECT_NEAR(t80[i].pct, t20[i].pct, 0.1);
    } else {
      EXPECT_DOUBLE_EQ(t80[i].pct, t20[i].pct);
    }
    EXPECT_LT(t80[i].pct, 50.0);  // everything stays deployable
  }
}

TEST(FabricTest, QueueSamplerCollects) {
  Fabric fab([](sim::Simulator& s) { return topo::make_dumbbell(s, 1, 1); }, 1);
  PercentileTracker q;
  fab.sample_queues(1_ms, 10_ms, q);
  fab.sim().run_until(10_ms);
  EXPECT_GE(q.count(), 8u);  // ~10 samples x all links, idle => zeros
  EXPECT_DOUBLE_EQ(q.max(), 0.0);
}

/// Smallest unsent backlog of a keep_backlogged pair (default 1 MB chunks)
/// on a dumbbell whose links all run at `bw`, sampled every `period` in
/// (0, stop).  The base transport never withholds a packet, so the pair
/// drains at line rate — the fastest the top-up must keep up with.
std::int64_t min_backlog(Bandwidth bw, TimeNs period, TimeNs stop) {
  topo::FabricOptions opts;
  opts.host_bw = bw;
  opts.fabric_bw = bw;
  Fabric fab([opts](sim::Simulator& s) { return topo::make_dumbbell(s, 1, 1, opts); }, 5);
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const HostId host{static_cast<std::int32_t>(h)};
    fab.adopt_stack(host, std::make_unique<transport::TransportStack>(
                              fab.net(), fab.vms(), host, transport::TransportOptions{},
                              fab.rng().fork(h)));
  }
  const TenantId t = fab.vms().add_tenant("bulk", bw);
  const VmPairId pair{fab.vms().add_vm(t, HostId{0}), fab.vms().add_vm(t, HostId{1})};
  fab.keep_backlogged(pair, TimeNs::zero(), stop);
  std::int64_t least = std::numeric_limits<std::int64_t>::max();
  for (TimeNs at = period; at < stop; at += period) {
    fab.sim().run_until(at);
    const transport::Connection* conn = fab.stack_at(HostId{0}).find_connection(pair);
    least = std::min(least, conn == nullptr ? 0 : conn->queued_bytes());
  }
  return least;
}

TEST(FabricTest, KeepBackloggedNeverRunsDry) {
  // 1 MB drains in 320 ms at 25 Mbps but in 80 us at 100 Gbps, faster than
  // any fixed re-check period tuned for slow NICs.
  EXPECT_GT(min_backlog(Bandwidth::mbps(25), 1_ms, 2'000_ms), 0);
  EXPECT_GT(min_backlog(Bandwidth::gbps(100), 2_us, 5_ms), 0);
}

}  // namespace
}  // namespace ufab::harness
