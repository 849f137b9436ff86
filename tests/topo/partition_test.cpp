// Topology partitioner invariants: full node coverage, hosts never cut from
// their ToR subtree, cut links exactly the shard-crossing links, lookahead
// equal to the true minimum boundary latency, and determinism on repeat.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.hpp"
#include "src/topo/builders.hpp"
#include "src/topo/network.hpp"
#include "src/topo/partition.hpp"

namespace ufab::topo {
namespace {

using BuildFn = std::function<std::unique_ptr<Network>(sim::Simulator&)>;

void check_partition(Network& net, int want, int expect_shards) {
  const Partition part = partition_network(net, want);
  ASSERT_EQ(part.shards, expect_shards) << "want=" << want;
  ASSERT_EQ(part.node_shard.size(), net.node_count());
  ASSERT_EQ(part.link_dst_shard.size(), net.links().size());

  // Every node lands on a valid shard; every shard holds at least one host.
  std::set<int> host_nodes;
  std::vector<int> hosts_per(static_cast<std::size_t>(part.shards), 0);
  for (std::size_t h = 0; h < net.host_count(); ++h) {
    const NodeId n = net.node_of(HostId{static_cast<std::int32_t>(h)});
    host_nodes.insert(n.value());
    const int s = part.shard_of(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, part.shards);
    ++hosts_per[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < part.shards; ++s) {
    EXPECT_GE(hosts_per[static_cast<std::size_t>(s)], 1) << "shard " << s << " has no hosts";
  }

  // Cut links are exactly the links whose endpoints sit on different shards,
  // link_dst_shard names the peer's shard, and the lookahead is the minimum
  // propagation delay over those links.
  std::set<std::int32_t> cut{};
  for (const LinkId lid : part.cut_links) cut.insert(lid.value());
  std::int64_t min_prop = std::numeric_limits<std::int64_t>::max();
  for (const sim::Link* l : net.links()) {
    const int from = part.shard_of(net.link_owner(l->id()));
    const int to = part.shard_of(net.link_owner(net.reverse_link(l->id())));
    const int dst = part.link_dst_shard.at(static_cast<std::size_t>(l->id().value()));
    if (from == to) {
      EXPECT_EQ(dst, -1) << l->name();
      EXPECT_FALSE(cut.count(l->id().value())) << l->name();
    } else {
      EXPECT_EQ(dst, to) << l->name();
      EXPECT_TRUE(cut.count(l->id().value())) << l->name();
      min_prop = std::min(min_prop, l->prop_delay().ns());
      // Hosts always stay with their ToR: a NIC link is never a cut link.
      EXPECT_FALSE(host_nodes.count(net.link_owner(l->id()).value())) << l->name();
      EXPECT_FALSE(host_nodes.count(net.link_owner(net.reverse_link(l->id())).value()))
          << l->name();
    }
  }
  if (part.shards == 1) {
    EXPECT_TRUE(part.cut_links.empty());
    EXPECT_EQ(part.lookahead, TimeNs::max());
  } else {
    ASSERT_FALSE(part.cut_links.empty());
    EXPECT_EQ(part.lookahead.ns(), min_prop);
    EXPECT_GT(part.lookahead.ns(), 0);
  }

  // Deterministic: the same topology and request reproduce the same cut.
  const Partition again = partition_network(net, want);
  EXPECT_EQ(part.node_shard, again.node_shard);
  EXPECT_EQ(part.lookahead, again.lookahead);
  ASSERT_EQ(part.cut_links.size(), again.cut_links.size());
  for (std::size_t i = 0; i < part.cut_links.size(); ++i) {
    EXPECT_EQ(part.cut_links[i].value(), again.cut_links[i].value());
  }
}

void check_topology(const BuildFn& build) {
  for (const int want : {1, 2, 4}) {
    sim::Simulator sim;
    auto net = build(sim);
    check_partition(*net, want, want);
  }
}

TEST(Partition, FatTreeK4SupportsOneTwoFourShards) {
  check_topology([](sim::Simulator& s) { return make_fat_tree(s, 4, 1, {}); });
}

TEST(Partition, FatTreeK8SupportsOneTwoFourShards) {
  check_topology([](sim::Simulator& s) { return make_fat_tree(s, 8, 1, {}); });
}

TEST(Partition, OversubscribedFatTreeSupportsOneTwoFourShards) {
  check_topology([](sim::Simulator& s) { return make_fat_tree(s, 4, 2, {}); });
}

TEST(Partition, FatTreeK16PartitionsCleanly) {
  // 1024 hosts, 320 switches: the fig17 UFAB_FIG17_K=16 scale.  All the
  // generic invariants hold — in particular no host is ever separated from
  // its ToR — at every shard count the perf grid uses.
  for (const int want : {1, 2, 4, 8, 16}) {
    sim::Simulator sim;
    auto net = make_fat_tree(sim, 16, 1, {});
    check_partition(*net, want, want);
  }
}

TEST(Partition, TieredCorePropSetsCutLookahead) {
  // With short in-pod fibers and long agg<->core spans (the fig17 bench
  // defaults), a per-pod cut lands exclusively on the core tier, so the
  // epoch lookahead is the core prop — 10x the uniform default.
  FabricOptions opts;
  opts.prop_delay = TimeNs{500};
  opts.core_prop = TimeNs{5'000};
  sim::Simulator sim;
  auto net = make_fat_tree(sim, 8, 1, opts);
  const Partition part = partition_network(*net, 4);
  ASSERT_EQ(part.shards, 4);
  EXPECT_EQ(part.lookahead, TimeNs{5'000});
  for (const LinkId lid : part.cut_links) EXPECT_EQ(net->link(lid)->prop_delay(), TimeNs{5'000});
}

TEST(Partition, TestbedSupportsOneTwoFourShards) {
  check_topology([](sim::Simulator& s) { return make_testbed(s, {}); });
}

TEST(Partition, ClampsWhenTopologyCannotSplit) {
  // A dumbbell has a single ToR pair and no strippable upper tier that would
  // leave two host-bearing components; the partitioner clamps to 1 shard.
  sim::Simulator sim;
  auto net = make_dumbbell(sim, 4, 4, {});
  const Partition part = partition_network(*net, 4);
  EXPECT_EQ(part.shards, 1);
  EXPECT_TRUE(part.cut_links.empty());
  EXPECT_EQ(part.lookahead, TimeNs::max());
}

TEST(Partition, BalancesHostsAcrossShards) {
  sim::Simulator sim;
  auto net = make_fat_tree(sim, 4, 1, {});
  const Partition part = partition_network(*net, 4);
  std::vector<int> hosts_per(4, 0);
  for (std::size_t h = 0; h < net->host_count(); ++h) {
    ++hosts_per[static_cast<std::size_t>(
        part.shard_of(net->node_of(HostId{static_cast<std::int32_t>(h)})))];
  }
  // k=4: four pods of four hosts, one pod per shard.
  for (const int n : hosts_per) EXPECT_EQ(n, 4);
}

}  // namespace
}  // namespace ufab::topo
