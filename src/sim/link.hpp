// Unidirectional link with an egress FIFO.
//
// A Link models one egress: a tail-drop FIFO, a serializer running at the
// link capacity, and the propagation delay to the peer node.  Switch egresses
// push packets; host NICs additionally register a pull source so the host's
// packet scheduler is consulted exactly when the wire goes idle (this is how
// the hierarchical WFQ of uFAB-E is enforced without a second queue).
//
// The link also owns the state the informative core reads: cumulative TX
// bytes (for sender-side rate differentiation, as in HPCC), a short-window
// rate estimate, instantaneous queue depth, and ECN marking.
//
// One serializer (DESIGN.md §13.1): every packet — pushed by a switch or
// pulled from a NIC's source — is committed on arrival to an in-order pipe
// (`pipe_`) with its serialization interval [start, ser_end), start =
// max(now, wire free), and one child key of the event that commits it.  The
// delivery at the peer fires at (ser_end + prop, key).  Cumulative TX, rate
// checkpoints and queue depth settle from the pipe by time: an entry has left
// the serializer once ser_end <= now on the link's own shard clock.
//
// A plain push link keeps one resident calendar event: the pipe head's
// delivery.  A cut link posts each crossing at commit instead.  Links whose
// semantics need an event when a packet leaves the wire — pull sources (the
// next pull), wire-loss filters (the draw), and links the fault plane flaps
// (a cut link's crossing must stay recallable by set_down) — get a wire-exit
// event at ser_end instead; it hands the packet to its delivery under the
// same key and time, so the option is schedule-neutral.
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

  /// Registers a pull source consulted when the wire goes idle (host NIC
  /// mode): the link gets wire-exit events, and pushed packets go ahead of
  /// the next pull.
  void set_source(PullSource source) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_source on a link with traffic");
    source_ = std::move(source);
    wire_exit_ = true;
  }

  /// Re-evaluates transmission; call after the pull source gains work.
  void kick();

  /// Administratively disables the link (failure injection): packets not yet
  /// past their serializer end (ser_end > now) are dropped, packets already
  /// on the wire still arrive, and future packets are dropped on arrival.
  /// Re-enabling takes effect immediately: the wire is free at once and a
  /// stale calendar event for a dropped packet is neutralized, so a rapid
  /// down->up flap does not leave the link wedged.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  using FaultFilter = std::function<bool(const Packet&)>;

  /// Wire-loss fault hook (fault injection): consulted when a packet finishes
  /// serializing; returning true discards it instead of delivering (the
  /// packet still consumed link time, like corruption on the wire).  The
  /// draw happens in the packet's wire-exit event, so draws follow event
  /// order.
  void set_fault_filter(FaultFilter filter) {
    enable_wire_exit();
    fault_filter_ = std::move(filter);
  }
  [[nodiscard]] std::int64_t fault_drops() const { return fault_drops_; }

  /// Gives every packet a wire-exit event at (ser_end, its key) that hands it
  /// to its delivery, which keeps its key and time.  The fault plane sets it
  /// on every link it will flap: a cut link then posts its crossing at wire
  /// exit instead of at commit, so set_down can still drop it.  Set on every
  /// partition alike (the flap schedule is partition-invariant), event counts
  /// stay identical across shard counts.  Safe mid-run from the link's own
  /// shard: packets already on the wire become their delivery events; a cut
  /// link must have nothing left to serialize.
  void enable_wire_exit();

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
    settle();
    return queue_bytes_;
  }
  [[nodiscard]] std::int64_t max_queue_bytes() const { return max_queue_bytes_; }
  [[nodiscard]] std::int64_t tx_bytes_cum() const {
    settle();
    return tx_bytes_cum_;
  }
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] Node* peer() const { return dst_; }

  /// Bytes-over-window rate estimate from departure checkpoints.
  [[nodiscard]] Bandwidth tx_rate(TimeNs window = TimeNs{10'000}) const;

  void reset_max_queue() {
    settle();
    max_queue_bytes_ = queue_bytes_;
  }

  /// Packets the pipe holds (tests): committed and not yet delivered — or,
  /// with wire-exit events, not yet past their wire exit.
  [[nodiscard]] std::size_t pipe_depth() const { return pipe_.size(); }

  /// Attaches the observability context (null detaches). Passive: recording
  /// never changes queueing or timing.
  void set_obs(obs::Obs* obs) { obs_ = obs; }

  /// Marks this link as a shard-cut link: delivered packets are posted to
  /// `shard`'s mailbox instead of scheduled locally (sharded engine only;
  /// -1 restores local delivery).  Set by Fabric::configure_sharding.
  void set_cross_shard_dst(int shard) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_cross_shard_dst on a link with traffic");
    cross_shard_dst_ = shard;
  }
  [[nodiscard]] int cross_shard_dst() const { return cross_shard_dst_; }

 private:
  friend struct FusedLinkDeliver;

  /// One committed packet.  Its serialization ends at `ser_end` (it started
  /// tx_time(bytes) earlier); (h, k) is the child key of the event that
  /// committed it, which its delivery carries.  `pkt` is null once a cut
  /// link posted it with its crossing.
  struct PipeEntry {
    PacketPtr pkt;
    TimeNs ser_end = TimeNs::zero();
    std::uint64_t h = 0;
    std::uint32_t k = 0;
    std::int32_t bytes = 0;
#ifndef NDEBUG
    TimeNs commit = TimeNs::zero();  ///< Commit time, for check_pipe_order.
#endif
  };

  /// Cut links without wire-exit events post each crossing at commit.
  [[nodiscard]] bool posts_at_commit() const { return cross_shard_dst_ >= 0 && !wire_exit_; }
  /// The link's own shard clock, which settles the pipe whichever shard reads.
  [[nodiscard]] TimeNs clock() const { return home_ != nullptr ? sim_.now_of(home_) : sim_.now(); }

  /// Tail-drop / ECN admission against the current queue_bytes_.  Returns
  /// false when the packet was dropped.
  bool admit(Packet& pkt);
  /// Commits `pkt` to the pipe at now (state settled); see the file comment.
  void commit(PacketPtr pkt);
  /// Asks the pull source for the next packet; the wire is idle.
  void pull();
  /// Accounts every entry whose serialization ended by the link's clock:
  /// cumulative TX bytes, a rate checkpoint at its ser_end, and its
  /// successor leaving the queue.  Lazy and idempotent; called before every
  /// read or commit of serializer state.
  void settle() const;
  /// Schedules the link's one resident event for pipe_.front(): its wire
  /// exit, or — without wire-exit events — its delivery.
  void arm_front();
  /// Runs that event: retires the front and hands its packet on.
  void fire_front(std::uint64_t epoch);
  /// Hands a packet that left the wire to its delivery at (ser_end + prop,
  /// key): a crossing on a cut link, a DeliverEvent otherwise.
  void deliver(PipeEntry e);
  void check_pipe_order() const;  ///< Debug-only pipe contract sweep.
  void record_drop(const Packet& pkt, obs::DropReason reason);

  Simulator& sim_;
  LinkId id_;
  std::string name_;
  Node* dst_;
  LinkConfig cfg_;

  /// Committed packets in serialization order; the first `settled_` entries
  /// are past their ser_end and accounted.  Mutable (with the bookkeeping
  /// below) because settling happens lazily from const telemetry reads.
  mutable RingDeque<PipeEntry> pipe_;
  mutable std::size_t settled_ = 0;
  mutable std::int64_t queue_bytes_ = 0;
  std::int64_t max_queue_bytes_ = 0;
  bool down_ = false;
  bool wire_exit_ = false;  ///< Wire-exit events on (enable_wire_exit).
  /// Bumped when set_down drops the entry the resident front event points
  /// at; that event compares its captured epoch and becomes a no-op.
  std::uint64_t epoch_ = 0;
  /// The shard whose clock settles the pipe; captured at the first commit.
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
