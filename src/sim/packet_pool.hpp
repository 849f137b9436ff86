// Packet freelist.
//
// Every simulated packet used to be a fresh heap allocation (plus two
// std::vector allocations for its routes) that was freed on delivery or drop.
// PacketPool turns that into reuse: packets are carved from stable arena
// chunks, and destruction through PacketPtr's deleter puts them back on the
// pool's freelist after a field reset — so the steady-state cost of
// Packet::make is a pointer pop plus the reset, with no allocator traffic.
// The reset is total (see Packet::reset_for_reuse): a recycled packet carries
// no telemetry, route, or probe state from its previous life, which
// tests/sim/packet_pool_test.cpp locks in.
//
// The pool also owns the run's packet-id counter.  Ids used to come from a
// process-wide global; a per-pool counter makes them deterministic per run
// regardless of what ran earlier in the process — a requirement once bench
// variants execute concurrently (harness::ParallelSweep).
//
// One pool per packet (DESIGN.md §12.3): each engine shard owns one pool,
// and a packet lives and dies on the shard whose pool made it.  A crossing
// to another shard carries a copy (copy_of, taken from the destination
// shard's pool), and the original goes back to its own pool on its own
// thread, so put() is the plain freelist push on every engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace ufab::sim {

struct Packet;
struct PacketDeleter;

class PacketPool {
 public:
  PacketPool();  // out of line: members hold the then-incomplete Packet
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  /// A reset packet with a fresh id, recycled when possible.  The caller
  /// wraps it in a PacketPtr (Packet::make does this).
  [[nodiscard]] Packet* take();

  /// A packet of this pool holding every field of `src`, its id included;
  /// only origin_pool differs.  Draws no id.
  [[nodiscard]] std::unique_ptr<Packet, PacketDeleter> copy_of(const Packet& src);

  /// Resets a packet and returns it to the freelist (called by PacketPtr's
  /// deleter).
  void put(Packet* p);

  [[nodiscard]] std::uint64_t next_packet_id() { return next_id_++; }

  // --- introspection (tests / benches) ---
  [[nodiscard]] std::size_t allocated() const { return allocated_; }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Packets returned to the freelist for reuse (counted at put time).
  [[nodiscard]] std::uint64_t recycled_total() const { return recycled_; }
  /// Most packets simultaneously live over the pool's lifetime (shard
  /// imbalance shows up here: a hot shard's pool peaks far above the rest).
  [[nodiscard]] std::size_t in_use_high_water() const { return in_use_hwm_; }

 private:
  static constexpr std::size_t kChunkPackets = 256;

  /// Stable storage: packets are carved from fixed arrays and never move.
  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;  ///< LIFO freelist (best cache locality).
  std::size_t allocated_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t recycled_ = 0;
  std::size_t in_use_ = 0;
  std::size_t in_use_hwm_ = 0;
};

}  // namespace ufab::sim
