#include "src/topo/partition.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>

#include "src/core/assert.hpp"
#include "src/topo/network.hpp"

namespace ufab::topo {

namespace {

/// Undirected neighbor lists derived from the duplex link pairs.
std::vector<std::vector<int>> adjacency(const Network& net) {
  std::vector<std::vector<int>> adj(net.node_count());
  for (const sim::Link* l : net.links()) {
    const int from = net.link_owner(l->id()).value();
    const int to = net.link_owner(net.reverse_link(l->id())).value();
    adj[static_cast<std::size_t>(from)].push_back(to);
  }
  return adj;
}

/// Min hop distance from every node to the nearest host (hosts are 0, their
/// ToRs 1, and so on up the tiers).  Multi-source BFS.
std::vector<int> tier_levels(const Network& net, const std::vector<std::vector<int>>& adj) {
  std::vector<int> level(net.node_count(), -1);
  std::deque<int> frontier;
  for (std::size_t h = 0; h < net.host_count(); ++h) {
    const int n = net.node_of(HostId{static_cast<std::int32_t>(h)}).value();
    level[static_cast<std::size_t>(n)] = 0;
    frontier.push_back(n);
  }
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop_front();
    for (const int v : adj[static_cast<std::size_t>(u)]) {
      if (level[static_cast<std::size_t>(v)] == -1) {
        level[static_cast<std::size_t>(v)] = level[static_cast<std::size_t>(u)] + 1;
        frontier.push_back(v);
      }
    }
  }
  return level;
}

/// Connected components over nodes with level < strip_level (plus every
/// host), labeled in increasing min-node-id order so the labeling — and
/// everything downstream — is deterministic.
std::vector<int> components_below(const std::vector<std::vector<int>>& adj,
                                  const std::vector<int>& level, int strip_level,
                                  int* count_out) {
  std::vector<int> comp(adj.size(), -1);
  int next = 0;
  for (std::size_t seed = 0; seed < adj.size(); ++seed) {
    if (comp[seed] != -1 || level[seed] < 0 || level[seed] >= strip_level) continue;
    std::deque<int> frontier{static_cast<int>(seed)};
    comp[seed] = next;
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop_front();
      for (const int v : adj[static_cast<std::size_t>(u)]) {
        const auto vi = static_cast<std::size_t>(v);
        if (comp[vi] == -1 && level[vi] >= 0 && level[vi] < strip_level) {
          comp[vi] = next;
          frontier.push_back(v);
        }
      }
    }
    ++next;
  }
  *count_out = next;
  return comp;
}

}  // namespace

Partition partition_network(const Network& net, int want_shards) {
  UFAB_CHECK(want_shards >= 1);
  Partition out;
  out.node_shard.assign(net.node_count(), 0);
  out.link_dst_shard.assign(net.links().size(), -1);
  if (want_shards == 1) {
    out.shards = 1;
    return out;
  }

  const auto adj = adjacency(net);
  const auto level = tier_levels(net, adj);
  int max_level = 0;
  for (const int l : level) max_level = std::max(max_level, l);

  // Strip tiers top-down until enough host-bearing components appear.  A
  // strip level of 2 is the floor: level-1 switches are the ToRs, and a host
  // separated from its ToR would turn every NIC link into a cut link.
  int strip_level = std::max(2, max_level);  // strip switches with level >= this
  int comp_count = 0;
  std::vector<int> comp = components_below(adj, level, strip_level, &comp_count);
  while (comp_count < want_shards && strip_level > 2) {
    --strip_level;
    comp = components_below(adj, level, strip_level, &comp_count);
  }
  if (comp_count < want_shards) {
    std::fprintf(stderr,
                 "[partition] topology supports only %d shard%s (requested %d); clamping\n",
                 comp_count, comp_count == 1 ? "" : "s", want_shards);
  }
  const int shards = std::min(want_shards, std::max(1, comp_count));
  out.shards = shards;
  if (shards == 1) return out;

  // Component weights (hosts) for balance, plus the deterministic order:
  // heaviest first, ties by the component's smallest node id (== label).
  std::vector<int> comp_hosts(static_cast<std::size_t>(comp_count), 0);
  for (std::size_t h = 0; h < net.host_count(); ++h) {
    const int n = net.node_of(HostId{static_cast<std::int32_t>(h)}).value();
    ++comp_hosts[static_cast<std::size_t>(comp[static_cast<std::size_t>(n)])];
  }
  std::vector<int> order(static_cast<std::size_t>(comp_count));
  for (int c = 0; c < comp_count; ++c) order[static_cast<std::size_t>(c)] = c;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int ha = comp_hosts[static_cast<std::size_t>(a)];
    const int hb = comp_hosts[static_cast<std::size_t>(b)];
    if (ha != hb) return ha > hb;
    return a < b;
  });

  // Greedy bin packing: each component lands on the lightest shard so far
  // (lowest index on ties).
  std::vector<int> comp_shard(static_cast<std::size_t>(comp_count), 0);
  std::vector<int> shard_hosts(static_cast<std::size_t>(shards), 0);
  for (const int c : order) {
    int best = 0;
    for (int s = 1; s < shards; ++s) {
      if (shard_hosts[static_cast<std::size_t>(s)] < shard_hosts[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    comp_shard[static_cast<std::size_t>(c)] = best;
    shard_hosts[static_cast<std::size_t>(best)] += comp_hosts[static_cast<std::size_t>(c)];
  }

  // Node assignment: component members follow their component; stripped
  // top-tier switches are dealt round-robin in node-id order.
  int rr = 0;
  for (std::size_t n = 0; n < net.node_count(); ++n) {
    if (comp[n] >= 0) {
      out.node_shard[n] = comp_shard[static_cast<std::size_t>(comp[n])];
    } else {
      out.node_shard[n] = rr++ % shards;
    }
  }

  // Cut links and the lookahead bound (min prop over them).
  std::int64_t min_prop = std::numeric_limits<std::int64_t>::max();
  for (const sim::Link* l : net.links()) {
    const int from = out.node_shard[static_cast<std::size_t>(net.link_owner(l->id()).value())];
    const int to = out.node_shard[static_cast<std::size_t>(
        net.link_owner(net.reverse_link(l->id())).value())];
    if (from == to) continue;
    out.cut_links.push_back(l->id());
    out.link_dst_shard[static_cast<std::size_t>(l->id().value())] = to;
    min_prop = std::min(min_prop, l->prop_delay().ns());
  }
  if (!out.cut_links.empty()) {
    UFAB_CHECK_MSG(min_prop > 0, "cut link with zero propagation delay: no lookahead");
    out.lookahead = TimeNs{min_prop};
  }
  return out;
}

}  // namespace ufab::topo
