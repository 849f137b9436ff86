#include "src/sim/link.hpp"

#include <algorithm>
#include <utility>

#include "src/core/assert.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/node.hpp"

namespace ufab::sim {

namespace {
/// Retain enough checkpoints to answer rate queries up to this far back.
constexpr TimeNs kMaxRateWindow{200'000};  // 200 us
}  // namespace

void FusedLinkDeliver::operator()() { link->fire_head(epoch); }

Link::Link(Simulator& sim, LinkId id, std::string name, Node* dst, LinkConfig cfg)
    : sim_(sim), id_(id), name_(std::move(name)), dst_(dst), cfg_(cfg) {
  UFAB_CHECK(dst_ != nullptr);
  UFAB_CHECK(cfg_.capacity.bits_per_sec() > 0.0);
}

void Link::record_drop(const Packet& pkt, obs::DropReason reason) {
  if (obs_ == nullptr || !obs_->record_datapath()) return;
  obs::TraceEvent ev;
  ev.at = sim_.now();
  ev.kind = obs::EventKind::kDrop;
  ev.detail = static_cast<std::uint8_t>(reason);
  ev.track = obs::Track::link(id_);
  ev.pair = pkt.pair;
  ev.tenant = pkt.tenant;
  ev.link = id_;
  ev.seq = pkt.id;
  ev.a = static_cast<double>(pkt.size_bytes);
  obs_->record(ev);
}

bool Link::admit(Packet& pkt) {
  if (queue_bytes_ + pkt.size_bytes > cfg_.queue_limit_bytes) {
    ++drops_;
    record_drop(pkt, obs::DropReason::kTailDrop);
    return false;  // tail drop
  }
  if (cfg_.ecn_threshold_bytes >= 0 && pkt.ecn_capable &&
      queue_bytes_ > cfg_.ecn_threshold_bytes) {
    pkt.ecn_ce = true;
    if (obs_ != nullptr && obs_->record_datapath()) {
      obs::TraceEvent ev;
      ev.at = sim_.now();
      ev.kind = obs::EventKind::kEcnMark;
      ev.track = obs::Track::link(id_);
      ev.pair = pkt.pair;
      ev.tenant = pkt.tenant;
      ev.link = id_;
      ev.seq = pkt.id;
      ev.a = static_cast<double>(queue_bytes_);
      obs_->record(ev);
    }
  }
  return true;
}

void Link::enqueue(PacketPtr pkt) {
  UFAB_CHECK(pkt != nullptr);
  if (down_) {
    ++drops_;
    record_drop(*pkt, obs::DropReason::kLinkDown);
    return;
  }
  if (use_fused()) {
    enqueue_fused(std::move(pkt));
    return;
  }
  if (!admit(*pkt)) return;
  queue_bytes_ += pkt->size_bytes;
  max_queue_bytes_ = std::max(max_queue_bytes_, queue_bytes_);
  queue_.push_back(std::move(pkt));
  if (!busy_) start_next();
}

void Link::enqueue_fused(PacketPtr pkt) {
  // Catch everything the legacy engine would already have done by now, so the
  // admission checks below see exactly the state legacy enqueue() would.
  advance();
  UFAB_CHECK(!busy_ && !in_flight_);  // legacy serializer must never be active
  if (home_ == nullptr) home_ = sim_.active_shard_handle();
  UFAB_CHECK_MSG(home_ == sim_.active_shard_handle(),
                 "fused link committed from a foreign shard");
  if (!admit(*pkt)) return;

  const std::int32_t bytes = pkt->size_bytes;
  // Commit the packet's serialization interval eagerly.  Idle serializer:
  // it starts now, and its virtual serializer-end event consumes the exact
  // child-key slot legacy start_next()'s after() call would have.  Busy:
  // it starts when its predecessor's serialization ends, and its virtual
  // event is the predecessor event's second child (the first child is the
  // predecessor's own delivery) — the slot legacy's chained start_next()
  // would have consumed.
  const bool idle = (mat_ == pipe_.size());
  PipeEntry e;
  e.bytes = bytes;
  e.in_queue = !idle;
  if (idle) {
    const Simulator::ChildKey key = sim_.alloc_child_key();
    e.h = key.h;
    e.k = key.k;
    e.ser_end = sim_.now() + cfg_.capacity.tx_time(bytes);
  } else {
    const PipeEntry& prev = pipe_.back();
    e.h = Simulator::event_identity(prev.h, prev.k);
    e.k = 1;
    e.ser_end = prev.ser_end + cfg_.capacity.tx_time(bytes);
  }
  // Legacy enqueue() adds the packet to the queue before start_next() pulls
  // it back out, so max_queue_bytes_ observes the transient even on an idle
  // link; queue_bytes_ itself only grows when the packet actually waits.
  max_queue_bytes_ = std::max(max_queue_bytes_, queue_bytes_ + bytes);
  if (!idle) queue_bytes_ += bytes;

  // The delivery at the peer is the virtual serializer-end event's first
  // child: raw key (event_identity(h, k), 0), byte-identical to the key the
  // legacy DeliverEvent / crossing would carry.
  if (cross_shard_dst_ >= 0) {
    // Cut link: post the crossing eagerly so the hop still costs one event
    // on every partition (event counts are compared bit-exactly across shard
    // counts).  The crossing's arrival is >= the first epoch boundary after
    // this commit (prop_delay >= lookahead for cut links), so posting early
    // never outruns the conservative window protocol.
    sim_.post_cross_keyed(cross_shard_dst_, e.ser_end + cfg_.prop_delay, dst_, std::move(pkt),
                          Simulator::event_identity(e.h, e.k), 0);
    pipe_.push_back(std::move(e));
  } else {
    e.pkt = std::move(pkt);
    pipe_.push_back(std::move(e));
    // Head of an idle pipe: arm the single resident calendar event.
    if (pipe_.size() == 1) arm_head();
  }
  check_pipe_order();
}

void Link::arm_head() {
  const PipeEntry& head = pipe_.front();
  sim_.at_keyed(head.ser_end + cfg_.prop_delay, Simulator::event_identity(head.h, head.k), 0,
                FusedLinkDeliver{this, epoch_});
}

void Link::advance() const {
  // Replay, in order, every virtual serializer-end milestone whose (time,
  // key) the executing shard has passed — i.e. every milestone the legacy
  // engine would already have run as a real calendar event.  Each replay
  // performs exactly the state updates legacy finish_transmit()/start_next()
  // performed at that instant: cumulative TX bytes, a rate checkpoint
  // (trimmed with the milestone's own timestamp as "now"), and the
  // successor's dequeue.
  while (mat_ < pipe_.size()) {
    const PipeEntry& e = pipe_[mat_];
    if (!sim_.key_fired(home_, e.ser_end, e.h, e.k)) break;
    note_departure(e.ser_end, e.bytes);
    if (mat_ + 1 < pipe_.size()) {
      PipeEntry& next = pipe_[mat_ + 1];
      if (next.in_queue) {
        next.in_queue = false;
        queue_bytes_ -= next.bytes;
      }
    }
    ++mat_;
  }
  if (cross_shard_dst_ >= 0) {
    // Cut links have no local delivery: a materialized entry's packet is
    // already traveling in the mailbox, so the entry is fully retired.
    while (mat_ > 0) {
      pipe_.pop_front();
      --mat_;
    }
  }
}

void Link::note_departure(TimeNs at, std::int32_t bytes) const {
  tx_bytes_cum_ += bytes;
  checkpoints_.push_back({at, tx_bytes_cum_});
  while (checkpoints_.size() > 2 && at - checkpoints_.front().first > kMaxRateWindow) {
    checkpoints_.pop_front();
  }
}

void Link::fire_head(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // pipeline aborted by set_down
  advance();
  // The head's serialization milestone precedes its delivery by prop_delay
  // > 0, so by the time this event runs it must have been replayed.
  UFAB_CHECK(mat_ > 0);
  PipeEntry head = std::move(pipe_.front());
  pipe_.pop_front();
  --mat_;
  UFAB_CHECK(head.pkt != nullptr);
  // Re-arm for the next in-flight packet before delivering: receive() can
  // re-enter this link, and the pipe must look consistent when it does.
  if (!pipe_.empty()) arm_head();
  check_pipe_order();
  dst_->receive(std::move(head.pkt));
}

void Link::leave_pipeline() {
  advance();
  if (mat_ == pipe_.size()) return;  // nothing left to serialize
  UFAB_CHECK_MSG(cross_shard_dst_ < 0,
                 "fused cut link leaves its pipeline mid-serialization: its crossings "
                 "were posted at commit time and cannot be recalled");
  // The handed-over finish event must land on the link's own calendar.
  UFAB_CHECK_MSG(home_ == sim_.active_shard_handle(),
                 "fused link leaves its pipeline from a foreign shard");
  if (mat_ == 0) ++epoch_;  // the head event pointed at the entry that moves
  // The entry being serialized finishes at its own ser_end under the raw key
  // its virtual serializer-end event carried, so its delivery and its
  // successors keep the keys they would have had on the fused path.
  PipeEntry& cur = pipe_[mat_];
  busy_ = true;
  in_flight_ = std::move(cur.pkt);
  sim_.at_keyed(cur.ser_end, cur.h, cur.k,
                [this, bytes = cur.bytes, epoch = epoch_] { finish_transmit(bytes, epoch); });
  // Waiting entries already count toward queue_bytes_.
  for (std::size_t i = mat_ + 1; i < pipe_.size(); ++i) queue_.push_back(std::move(pipe_[i].pkt));
  while (pipe_.size() > mat_) pipe_.pop_back();
  check_pipe_order();
}

void Link::check_pipe_order() const {
#ifndef NDEBUG
  // The fused pipe must be a FIFO in serialization time: entries are
  // committed in arrival order and ser_end is nondecreasing front to back.
  // A violation would mean the fused engine could deliver out of order.
  for (std::size_t i = 1; i < pipe_.size(); ++i) {
    UFAB_CHECK_MSG(!(pipe_[i].ser_end < pipe_[i - 1].ser_end),
                   "fused link pipe reordered");
  }
  UFAB_CHECK(mat_ <= pipe_.size());
#endif
}

void Link::kick() {
  if (!busy_ && !down_) start_next();
}

void Link::set_down(bool down) {
  if (down_ == down) return;
  down_ = down;
  if (down_) {
    advance();
    drops_ += static_cast<std::int64_t>(queue_.size());
    queue_.clear();
    if (mat_ < pipe_.size()) {
      // Drop the fused entries that are not yet on the wire: in legacy terms
      // the suffix [mat_+1, size) is the queue and entry mat_ is in flight.
      // Packets already past their serializer-end (entries [0, mat_)) are
      // propagating and still deliver, exactly like legacy DeliverEvents.
      UFAB_CHECK_MSG(cross_shard_dst_ < 0,
                     "set_down on a fused cut link: its crossings were posted "
                     "at commit time and cannot be recalled — pin_legacy() "
                     "flapped cut links");
      const std::size_t sz = pipe_.size();
      drops_ += static_cast<std::int64_t>(sz - mat_);
      // Destroy in legacy order: queued packets front to back, then the
      // in-flight one (packet-pool free order feeds later allocations).
      for (std::size_t i = mat_ + 1; i < sz; ++i) pipe_[i].pkt.reset();
      pipe_[mat_].pkt.reset();
      while (pipe_.size() > mat_) pipe_.pop_back();
      if (mat_ == 0) {
        // The resident head event pointed at a dropped entry; neutralize it.
        ++epoch_;
      }
      check_pipe_order();
    }
    queue_bytes_ = 0;
    if (in_flight_) {
      // Abort the in-flight serialization: drop the packet, free the
      // serializer, and bump the epoch so the already-scheduled completion
      // event becomes a no-op. Leaving busy_ set here would make kick()
      // after a fast re-enable a no-op until the stale event fired.
      in_flight_.reset();
      ++drops_;
      ++epoch_;
      busy_ = false;
      // After leave_pipeline, packets still propagating in the pipe keep
      // arriving: re-arm their head event under the new epoch.
      if (!pipe_.empty()) arm_head();
    }
  } else {
    kick();
  }
}

void Link::start_next() {
  UFAB_CHECK(!busy_);
  // Claim the serializer before running the pull callback: source_() can
  // re-enter enqueue() on this same link (e.g. the transport's probe cadence
  // fires while the NIC asks for the next data packet), and a nested
  // start_next() would put that packet in flight only for the assignment
  // below to overwrite — and silently destroy — it.
  busy_ = true;
  PacketPtr pkt;
  if (queue_.empty() && source_) pkt = source_();
  // Queued packets go first; when the pull came back empty, a re-entrant
  // enqueue during it may have queued one — serialize it now rather than
  // leaving it stranded until the next kick.
  if (!pkt && !queue_.empty()) {
    pkt = std::move(queue_.front());
    queue_.pop_front();
    queue_bytes_ -= pkt->size_bytes;
  }
  if (!pkt) {
    busy_ = false;
    return;  // idle
  }
  const std::int32_t bytes = pkt->size_bytes;
  in_flight_ = std::move(pkt);
  sim_.after(cfg_.capacity.tx_time(bytes),
             [this, bytes, epoch = epoch_] { finish_transmit(bytes, epoch); });
}

void Link::finish_transmit(std::int32_t bytes, std::uint64_t epoch) {
  if (epoch != epoch_) return;  // serialization aborted by set_down
  busy_ = false;
  if (in_flight_) {
    note_departure(sim_.now(), bytes);
    PacketPtr pkt = std::move(in_flight_);
    if (fault_filter_ && fault_filter_(*pkt)) {
      // Lost on the wire (fault injection): link time was consumed but the
      // packet never reaches the peer.
      ++fault_drops_;
      record_drop(*pkt, obs::DropReason::kWireFault);
    } else if (cross_shard_dst_ >= 0) {
      // The peer lives on another engine shard: hand the packet to the
      // cross-shard mailbox with the exact arrival time and ordering key the
      // local after() call would have produced (post_cross consumes the same
      // child slot), so the merged schedule is partition-independent.
      sim_.post_cross(cross_shard_dst_, sim_.now() + cfg_.prop_delay, dst_, std::move(pkt));
    } else {
      // Hand the packet to the propagation stage; delivery is a future event
      // that owns the packet (freed with the queue if the run is cut short).
      sim_.after(cfg_.prop_delay, DeliverEvent{dst_, std::move(pkt)});
    }
  }
  if (!down_) start_next();
}

Bandwidth Link::tx_rate(TimeNs window) const {
  advance();
  if (checkpoints_.empty()) return Bandwidth::zero();
  const TimeNs now = sim_.now();
  const TimeNs cutoff = now - window;
  // Find the most recent checkpoint at or before the cutoff.
  std::int64_t base_bytes = 0;
  TimeNs base_time = TimeNs::zero();
  bool found = false;
  for (std::size_t i = checkpoints_.size(); i-- > 0;) {
    const auto& cp = checkpoints_[i];
    if (cp.first <= cutoff) {
      base_bytes = cp.second;
      base_time = cp.first;
      found = true;
      break;
    }
  }
  if (!found) {
    base_time = checkpoints_.front().first;
    base_bytes = checkpoints_.front().second;
  }
  const TimeNs span = now - base_time;
  if (span.ns() <= 0) return Bandwidth::zero();
  const std::int64_t bytes = tx_bytes_cum_ - base_bytes;
  return Bandwidth::bps(static_cast<double>(bytes) * 8e9 / static_cast<double>(span.ns()));
}

}  // namespace ufab::sim
