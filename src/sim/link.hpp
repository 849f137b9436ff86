// Unidirectional link with an egress FIFO.
//
// A Link models one egress: a tail-drop FIFO, a serializer running at the
// link capacity, and the propagation delay to the peer node.  Switch egresses
// use the push queue; host NICs additionally register a pull source so the
// host's packet scheduler is consulted exactly when the wire goes idle (this
// is how the hierarchical WFQ of uFAB-E is enforced without a second queue).
//
// The link also owns the state the informative core reads: cumulative TX
// bytes (for sender-side rate differentiation, as in HPCC), a short-window
// rate estimate, instantaneous queue depth, and ECN marking.
//
// Two serializer implementations share that contract (DESIGN.md §13):
//
//  * Fused pipeline (every push link with a nonzero propagation delay): the
//    link keeps an in-order FIFO of in-flight packets (`pipe_`) and the
//    calendar holds only the *head* departure — one resident event per busy
//    link instead of two per packet.  Serialization milestones are virtual:
//    each pipe entry carries the raw (h, k) ordering key its serializer-end
//    event would have used on the two-event path, and bookkeeping
//    (cumulative TX, rate checkpoints, queue accounting) replays lazily,
//    exactly when the engine's key_fired() predicate says that event would
//    already have run.  Delivery events reuse the same keys, so schedules,
//    telemetry, and shard handoffs match the two-event serializer.
//
//  * Two-event path: every packet hop schedules a serializer-end closure plus
//    a DeliverEvent one propagation delay later.  Links that need a real
//    event at wire exit use it: pull-source (host NIC) links, links with
//    wire-loss fault filters, and links the fault plane pins.  A link that
//    switches mid-run hands its pipe over to it (leave_pipeline).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/core/ids.hpp"
#include "src/core/ring_deque.hpp"
#include "src/core/time.hpp"
#include "src/core/units.hpp"
#include "src/sim/node.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::obs {
class Obs;
enum class DropReason : std::uint8_t;
}  // namespace ufab::obs

namespace ufab::sim {

struct LinkConfig {
  Bandwidth capacity = Bandwidth::gbps(10);
  TimeNs prop_delay = TimeNs{1000};
  std::int64_t queue_limit_bytes = 2'000'000;
  /// ECN marking threshold on enqueue; <0 disables marking.
  std::int64_t ecn_threshold_bytes = -1;
  /// Target utilization eta: the "target capacity" C_l = eta * capacity that
  /// uFAB converges to (95% in the paper, leaving headroom for bursts).
  double target_utilization = 0.95;
};

class Link {
 public:
  /// Returns the next packet to transmit, or nullptr if nothing is ready.
  using PullSource = std::function<PacketPtr()>;

  Link(Simulator& sim, LinkId id, std::string name, Node* dst, LinkConfig cfg);

  /// Push-path entry (switch egress / host control packets). May tail-drop.
  void enqueue(PacketPtr pkt);

  /// Registers a pull source consulted when the queue is empty and the wire
  /// is idle (host NIC mode).  Pull links always use the two-event serializer
  /// (the source callback must run exactly when the wire goes idle).
  void set_source(PullSource source) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_source on a link with fused traffic");
    source_ = std::move(source);
  }

  /// Re-evaluates transmission; call after the pull source gains work.
  void kick();

  /// Administratively disables the link (failure injection); queued and
  /// in-flight packets are dropped, future packets are dropped on arrival.
  /// Re-enabling takes effect immediately: the serializer is freed and any
  /// stale completion event is neutralized, so a rapid down->up flap does
  /// not leave the link wedged until the old event fires.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  using FaultFilter = std::function<bool(const Packet&)>;

  /// Wire-loss fault hook (fault injection): consulted when a packet finishes
  /// serializing; returning true discards it instead of delivering (the
  /// packet still consumed link time, like corruption on the wire).  A
  /// filtered link uses the two-event serializer: the filter's RNG draws must
  /// happen at wire-exit time in event order.  Packets already committed to
  /// the fused pipe move over to it (leave_pipeline).
  void set_fault_filter(FaultFilter filter) {
    leave_pipeline();
    fault_filter_ = std::move(filter);
  }
  [[nodiscard]] std::int64_t fault_drops() const { return fault_drops_; }

  /// Pins this link to the two-event serializer.  The fault plane pins
  /// every link it will flap: a fused *cut* link posts its cross-shard
  /// crossing at commit time, which cannot be recalled by a later
  /// set_down — and the pin must be partition-invariant (the fault schedule
  /// is), so event counts stay byte-identical across shard counts.  Safe
  /// mid-run: packets already committed to the fused pipe move over to the
  /// two-event serializer (leave_pipeline).
  void pin_legacy() {
    leave_pipeline();
    pinned_legacy_ = true;
  }
  [[nodiscard]] bool pinned_legacy() const { return pinned_legacy_; }

  // --- telemetry / observability ---
  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return cfg_.capacity; }
  [[nodiscard]] Bandwidth target_capacity() const {
    return cfg_.capacity * cfg_.target_utilization;
  }
  [[nodiscard]] TimeNs prop_delay() const { return cfg_.prop_delay; }
  [[nodiscard]] std::int64_t queue_limit_bytes() const { return cfg_.queue_limit_bytes; }
  [[nodiscard]] std::int64_t queue_bytes() const {
    advance();
    return queue_bytes_;
  }
  [[nodiscard]] std::int64_t max_queue_bytes() const { return max_queue_bytes_; }
  [[nodiscard]] std::int64_t tx_bytes_cum() const {
    advance();
    return tx_bytes_cum_;
  }
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] Node* peer() const { return dst_; }

  /// Bytes-over-window rate estimate from departure checkpoints.
  [[nodiscard]] Bandwidth tx_rate(TimeNs window = TimeNs{10'000}) const;

  void reset_max_queue() {
    advance();
    max_queue_bytes_ = queue_bytes_;
  }

  /// In-flight packets on the fused pipeline (0 on the two-event path) — the
  /// calendar holds at most one event for all of them (tests).
  [[nodiscard]] std::size_t pipe_depth() const { return pipe_.size(); }

  /// Attaches the observability context (null detaches). Passive: recording
  /// never changes queueing or timing.
  void set_obs(obs::Obs* obs) { obs_ = obs; }

  /// Marks this link as a shard-cut link: delivered packets are posted to
  /// `shard`'s mailbox instead of scheduled locally (sharded engine only;
  /// -1 restores local delivery).  Set by Fabric::configure_sharding.
  void set_cross_shard_dst(int shard) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_cross_shard_dst on a link with fused traffic");
    cross_shard_dst_ = shard;
  }
  [[nodiscard]] int cross_shard_dst() const { return cross_shard_dst_; }

 private:
  friend struct FusedLinkDeliver;

  /// One in-flight packet on the fused pipeline.  `ser_end` plus the raw
  /// (h, k) key name the *virtual* serializer-end event this entry replaces;
  /// `in_queue` tracks whether the packet still counts toward queue_bytes_
  /// (cleared when its predecessor finishes serializing, exactly when legacy
  /// start_next would have popped it).  `pkt` is null on cut links — the
  /// packet traveled with the eagerly posted crossing.
  struct PipeEntry {
    PacketPtr pkt;
    std::int32_t bytes = 0;
    bool in_queue = false;
    TimeNs ser_end = TimeNs::zero();
    std::uint64_t h = 0;
    std::uint32_t k = 0;
  };

  [[nodiscard]] bool use_fused() const {
    return !pinned_legacy_ && !source_ && !fault_filter_ && cfg_.prop_delay.ns() > 0;
  }

  /// Tail-drop / ECN admission against the current queue_bytes_; shared by
  /// both serializers so the formulas can never drift apart.  Returns
  /// false when the packet was dropped.
  bool admit(Packet& pkt);
  void enqueue_fused(PacketPtr pkt);
  /// Replays every virtual serializer-end milestone the legacy engine would
  /// already have run, in order, each at its own timestamp.  Lazy and
  /// idempotent; called before every read or commit of serializer state.
  void advance() const;
  /// Schedules the resident head-departure event for pipe_.front().
  void arm_head();
  void fire_head(std::uint64_t epoch);
  /// Hands fused traffic to the two-event serializer before the link stops
  /// fusing: entries past their serializer-end stay in the pipe (the head
  /// event still delivers them), the entry being serialized becomes
  /// in_flight_ with its finish event at its own ser_end and key, and the
  /// rest of the pipe becomes queue_.  A cut link must have nothing left to
  /// serialize (its crossings were posted at commit time), and the call must
  /// come from the link's own shard.
  void leave_pipeline();
  void check_pipe_order() const;  ///< Debug-only FIFO invariant sweep.

  void start_next();
  void finish_transmit(std::int32_t bytes, std::uint64_t epoch);
  void record_drop(const Packet& pkt, obs::DropReason reason);

  Simulator& sim_;
  LinkId id_;
  std::string name_;
  Node* dst_;
  LinkConfig cfg_;

  RingDeque<PacketPtr> queue_;
  /// Fused pipeline of in-flight packets, in serialization order; the first
  /// `mat_` entries' serializer-end milestones have been replayed.  Mutable
  /// (with the bookkeeping below) because replay happens lazily from const
  /// telemetry reads.
  mutable RingDeque<PipeEntry> pipe_;
  mutable std::size_t mat_ = 0;
  mutable std::int64_t queue_bytes_ = 0;
  std::int64_t max_queue_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  bool pinned_legacy_ = false;
  PacketPtr in_flight_;  // the packet currently being serialized (two-event path)
  /// Bumped when an in-flight serialization is aborted (set_down) or handed
  /// over (leave_pipeline); the completion event — serializer-end or fused
  /// head departure — compares its captured epoch and becomes a no-op.
  std::uint64_t epoch_ = 0;
  /// The shard whose execution frontier decides which virtual milestones
  /// have fired; captured at the first fused commit.
  Simulator::ShardHandle home_ = nullptr;
  PullSource source_;
  FaultFilter fault_filter_;
  obs::Obs* obs_ = nullptr;
  int cross_shard_dst_ = -1;  ///< Destination shard when this link is cut.

  mutable std::int64_t tx_bytes_cum_ = 0;
  std::int64_t drops_ = 0;
  std::int64_t fault_drops_ = 0;

  /// (time, cumulative bytes) checkpoints for windowed rate estimation.
  /// One per transmitted packet, trimmed to the rate window: a RingDeque so
  /// the steady-state push/trim cycle never touches the allocator (std::deque
  /// allocates a block every few dozen pushes on this per-packet path).
  mutable RingDeque<std::pair<TimeNs, std::int64_t>> checkpoints_;
};

}  // namespace ufab::sim
