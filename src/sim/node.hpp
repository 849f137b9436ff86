// Base class for anything that can terminate a link (switch or host).
#pragma once

#include <string>
#include <utility>

#include "src/core/ids.hpp"
#include "src/core/unique_function.hpp"
#include "src/sim/packet.hpp"

namespace ufab::sim {

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// A packet has fully arrived at this node.
  virtual void receive(PacketPtr pkt) = 0;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  NodeId id_;
  std::string name_;
};

/// The propagation-stage event: owns the packet until delivery.  A named
/// functor (not a lambda) so it can be marked trivially relocatable — it is
/// the single hottest event shape, and the mark lets the event queue move it
/// by memcpy instead of an out-of-line unique_ptr move (see UniqueFunction).
/// Lives here (not in link.cpp) because the sharded engine also materializes
/// one when injecting a cross-shard crossing into the destination calendar.
struct DeliverEvent {
  Node* dst;
  PacketPtr p;
  void operator()() { dst->receive(std::move(p)); }
};

class Link;

/// The link pipe's head delivery: the only calendar entry a busy push link
/// keeps resident.  Fires the pipe head's arrival at the peer and re-arms
/// itself for the next committed packet (src/sim/link.cpp).  The packet stays
/// owned by the link's pipe — not by this event — so set_down can still drop
/// packets that have not left the serializer; `epoch` neutralizes a head
/// event whose packet set_down dropped.  Lives here so the engine profiler
/// can classify it as a delivery dispatch.
struct FusedLinkDeliver {
  Link* link;
  std::uint64_t epoch;
  void operator()();
};

}  // namespace ufab::sim

/// DeliverEvent is a raw pointer plus a unique_ptr with a stateless deleter:
/// moving its bytes and abandoning the source is equivalent to its move
/// constructor followed by destroying the (then empty) source.
template <>
inline constexpr bool ufab::is_trivially_relocatable_v<ufab::sim::DeliverEvent> = true;

/// FusedLinkDeliver is a raw pointer plus an integer: trivially copyable.
template <>
inline constexpr bool ufab::is_trivially_relocatable_v<ufab::sim::FusedLinkDeliver> = true;
