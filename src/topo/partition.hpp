// Graph partitioner for the sharded engine.
//
// Cuts a finalized Network into `shards` pieces along its highest switch
// tiers: a host always stays with its ToR (the edge agent and its subtree
// are one causal unit), and shards are the connected components left after
// stripping the top tiers, balanced by host count.  The stripped top-tier
// switches are dealt round-robin across shards — their links are the cut
// links, and the minimum propagation delay over them is the partition's
// lookahead: the rung length of the engine's one epoch protocol, under
// which the sharded engine is provably equivalent to the serial one (see
// DESIGN.md §9).
#pragma once

#include <vector>

#include "src/core/ids.hpp"
#include "src/core/time.hpp"

namespace ufab::topo {

class Network;

struct Partition {
  int shards = 1;
  /// Epoch length: min prop delay over cut links; TimeNs::max() if none cut.
  TimeNs lookahead = TimeNs::max();
  /// Shard of every node, indexed by NodeId value.
  std::vector<int> node_shard;
  /// Every link whose endpoints live on different shards.
  std::vector<LinkId> cut_links;
  /// Indexed by LinkId value: the peer's shard for cut links, -1 for local.
  std::vector<int> link_dst_shard;

  [[nodiscard]] int shard_of(NodeId n) const {
    return node_shard.at(static_cast<std::size_t>(n.value()));
  }
};

/// Partitions `net` into up to `want_shards` pieces.  Deterministic: the
/// same topology and shard count always produce the same partition.  When
/// the topology cannot support `want_shards` host-bearing components (every
/// strippable tier removed still leaves fewer), the result is clamped to
/// what is achievable and a note goes to stderr.
[[nodiscard]] Partition partition_network(const Network& net, int want_shards);

}  // namespace ufab::topo
