// Application models must function correctly over every transport scheme —
// parameterized sweep checking liveness and sane latency accounting.
#include <cstdlib>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.hpp"
#include "src/workload/apps.hpp"

namespace ufab::harness {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

class AppsAcrossSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AppsAcrossSchemes, RpcClosedLoopLives) {
  Experiment exp(
      GetParam(),
      [](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_dumbbell(s, 2, 2, o);
      },
      {}, {}, 4);
  auto& fab = exp.fab();
  auto& vms = fab.vms();
  const TenantId t = vms.add_tenant("rpc", 2_Gbps);
  std::vector<VmId> clients{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{1})};
  std::vector<VmId> servers{vms.add_vm(t, HostId{2}), vms.add_vm(t, HostId{3})};
  workload::RpcApp app(fab, clients, servers, workload::RpcApp::memcached(0_ms, 30_ms, 3),
                       fab.rng().fork("rpc"));
  fab.sim().run_until(40_ms);

  EXPECT_GT(app.completed(), 100) << to_string(GetParam());
  // Closed loop with 2 clients: QPS x QCT ~ 2 (Little's law sanity).
  const double qps = app.qps(5_ms, 30_ms);
  const double qct_sec = app.qct_us().mean() / 1e6;
  EXPECT_NEAR(qps * qct_sec, 2.0, 0.6) << to_string(GetParam());
  // Every QCT is at least a round trip of small packets (the MTU-based
  // base RTT overestimates serialization for 100 B requests, hence 0.5x).
  EXPECT_GT(app.qct_us().min(),
            fab.net().base_rtt(HostId{0}, HostId{2}).us() * 0.5);
}

TEST_P(AppsAcrossSchemes, EbsPipelineLives) {
  Experiment exp(
      GetParam(),
      [](sim::Simulator& s, const topo::FabricOptions& o) {
        return topo::make_dumbbell(s, 2, 4, o);
      },
      {}, {}, 4);
  auto& fab = exp.fab();
  auto& vms = fab.vms();
  const TenantId sa = vms.add_tenant("SA", 2_Gbps);
  const TenantId ba = vms.add_tenant("BA", 4_Gbps);
  std::vector<VmId> sas{vms.add_vm(sa, HostId{0}), vms.add_vm(sa, HostId{1})};
  std::vector<VmId> bas{vms.add_vm(ba, HostId{2}), vms.add_vm(ba, HostId{3})};
  std::vector<VmId> css{vms.add_vm(ba, HostId{4}), vms.add_vm(ba, HostId{5}),
                        vms.add_vm(ba, HostId{2})};
  workload::EbsApp::Config cfg;
  cfg.stop = 20_ms;
  workload::EbsApp app(fab, sas, bas, css, /*gc=*/{}, cfg, fab.rng().fork("ebs"));
  fab.sim().run_until(50_ms);

  EXPECT_GT(app.blocks_completed(), 30) << to_string(GetParam());
  // Replication happens after the SA stage by construction.
  EXPECT_GE(app.total_tct_ms().min(), app.sa_tct_ms().min());
}

/// Builds an RpcApp whose clients sit on two shards of a 2-shard testbed.
void build_rpc_app_across_shards() {
  ::setenv("UFAB_SHARDS", "2", 1);
  Experiment exp(
      Scheme::kUfab,
      [](sim::Simulator& s, const topo::FabricOptions& o) { return topo::make_testbed(s, o); },
      {}, {}, 4);
  auto& vms = exp.fab().vms();
  const TenantId t = vms.add_tenant("rpc", 1_Gbps);
  std::vector<VmId> clients{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{7})};
  std::vector<VmId> servers{vms.add_vm(t, HostId{4})};
  workload::RpcApp app(exp.fab(), clients, servers, workload::RpcApp::memcached(0_ms, 1_ms, 3),
                       exp.fab().rng().fork("rpc"));
}

TEST(AppsShardingDeathTest, RpcAppAcrossShardsDiesAtConstruction) {
  // One RNG and one set of tallies serve every client, so clients on two
  // shards of a 2-shard testbed are refused before any event runs.
  EXPECT_DEATH(build_rpc_app_across_shards(), "not shard-safe");
}

TEST(AppsSharding, RpcAppWithOneClientShardMatchesPlainRun) {
  // fig01's layout: every client on one shard and fixed-size responses, so
  // the servers on the other shard only send.  That layout is shard-safe,
  // and a 2-shard run reproduces the plain one on both executors.
  const auto run = [](int shards, sim::ShardExec exec) {
    const topo::FabricOptions opts = fabric_options_for(Scheme::kUfab, {});
    Fabric fab([&opts](sim::Simulator& s) { return topo::make_testbed(s, opts); }, 4);
    if (shards > 1) {
      fab.configure_sharding(shards, exec);
      EXPECT_EQ(fab.shard_of_host(HostId{0}), fab.shard_of_host(HostId{1}));
      EXPECT_NE(fab.shard_of_host(HostId{0}), fab.shard_of_host(HostId{4}));
    }
    install_scheme(fab, Scheme::kUfab);
    auto& vms = fab.vms();
    const TenantId t = vms.add_tenant("rpc", 1_Gbps);
    std::vector<VmId> clients{vms.add_vm(t, HostId{0}), vms.add_vm(t, HostId{1})};
    std::vector<VmId> servers{vms.add_vm(t, HostId{4}), vms.add_vm(t, HostId{5})};
    workload::RpcApp::Config cfg = workload::RpcApp::memcached(0_ms, 10_ms, 3);
    cfg.fixed_response_bytes = 2'000;
    workload::RpcApp app(fab, clients, servers, cfg, fab.rng().fork("rpc"));
    fab.sim().run_until(12_ms);
    return std::make_pair(app.completed(), app.qct_us().sorted());
  };
  const auto plain = run(1, sim::ShardExec::kSequential);
  ASSERT_GT(plain.first, 100);
  EXPECT_EQ(plain, run(2, sim::ShardExec::kSequential));
  EXPECT_EQ(plain, run(2, sim::ShardExec::kThreads));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AppsAcrossSchemes,
                         ::testing::Values(Scheme::kUfab, Scheme::kUfabPrime, Scheme::kPwc,
                                           Scheme::kEsClove),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ufab::harness
