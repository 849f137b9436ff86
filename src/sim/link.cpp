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

/// Marks a wire-exit event's key: it shares the packet's (h, k) except for
/// this bit, so its children never share an identity with the delivery's
/// (an event has far fewer than 2^31 children).
constexpr std::uint32_t kWireExitTag = 0x8000'0000u;
}  // namespace

void FusedLinkDeliver::operator()() { link->fire_front(epoch); }

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
  settle();
  if (!admit(*pkt)) return;
  // The high-water mark counts the arriving packet, even on an idle link.
  max_queue_bytes_ = std::max(max_queue_bytes_, queue_bytes_ + pkt->size_bytes);
  commit(std::move(pkt));
}

void Link::commit(PacketPtr pkt) {
  if (home_ == nullptr) home_ = sim_.active_shard_handle();
  UFAB_CHECK_MSG(home_ == sim_.active_shard_handle(), "link committed from a foreign shard");
  const TimeNs now = sim_.now();
  const TimeNs start = pipe_.empty() ? now : std::max(now, pipe_.back().ser_end);
  const Simulator::ChildKey key = sim_.alloc_child_key();
  PipeEntry e;
  e.bytes = pkt->size_bytes;
  e.ser_end = start + cfg_.capacity.tx_time(e.bytes);
  e.h = key.h;
  e.k = key.k;
#ifndef NDEBUG
  e.commit = now;
#endif
  // A packet that cannot start now waits behind the one being serialized.
  if (start > now) queue_bytes_ += e.bytes;
  if (posts_at_commit()) {
    // The hop still costs one event on every partition (event counts are
    // compared bit-exactly across shard counts).  The crossing arrives at
    // ser_end + prop >= now + lookahead, so posting early never outruns the
    // conservative window protocol.
    sim_.post_cross_keyed(cross_shard_dst_, e.ser_end + cfg_.prop_delay, dst_, std::move(pkt),
                          e.h, e.k);
  } else {
    e.pkt = std::move(pkt);
  }
  pipe_.push_back(std::move(e));
  if (pipe_.size() == 1 && !posts_at_commit()) arm_front();
  check_pipe_order();
}

void Link::pull() {
  // The source may re-enter enqueue() (the transport's probe cadence fires
  // while the NIC pulls the next data packet); that packet commits first.
  if (PacketPtr pkt = source_(); pkt != nullptr) commit(std::move(pkt));
}

void Link::kick() {
  if (source_ && !down_ && pipe_.empty()) pull();
}

void Link::arm_front() {
  const PipeEntry& f = pipe_.front();
  if (wire_exit_) {
    sim_.at_keyed(f.ser_end, f.h, f.k | kWireExitTag,
                  [this, epoch = epoch_] { fire_front(epoch); });
  } else {
    sim_.at_keyed(f.ser_end + cfg_.prop_delay, f.h, f.k, FusedLinkDeliver{this, epoch_});
  }
}

void Link::settle() const {
  if (settled_ == pipe_.size()) return;
  const TimeNs now = clock();
  while (settled_ < pipe_.size() && pipe_[settled_].ser_end <= now) {
    const PipeEntry& e = pipe_[settled_];
    tx_bytes_cum_ += e.bytes;
    checkpoints_.push_back({e.ser_end, tx_bytes_cum_});
    while (checkpoints_.size() > 2 && e.ser_end - checkpoints_.front().first > kMaxRateWindow) {
      checkpoints_.pop_front();
    }
    // The successor starts serializing: it leaves the queue.
    if (++settled_ < pipe_.size()) queue_bytes_ -= pipe_[settled_].bytes;
  }
  if (posts_at_commit()) {
    // Its packets travel with their crossings: a settled entry is retired.
    for (; settled_ > 0; --settled_) pipe_.pop_front();
  }
}

void Link::fire_front(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // its entry was dropped by set_down
  settle();
  // Both the wire exit and the delivery come at or after the serializer end.
  UFAB_CHECK(settled_ > 0);
  PipeEntry e = std::move(pipe_.front());
  pipe_.pop_front();
  --settled_;
  // Re-arm for the next packet before handing this one on: receive() can
  // re-enter this link, and the pipe must look consistent when it does.
  if (!pipe_.empty()) arm_front();
  check_pipe_order();
  if (!wire_exit_) {
    dst_->receive(std::move(e.pkt));
    return;
  }
  if (fault_filter_ && fault_filter_(*e.pkt)) {
    // Lost on the wire (fault injection): link time was consumed but the
    // packet never reaches the peer.
    ++fault_drops_;
    record_drop(*e.pkt, obs::DropReason::kWireFault);
  } else {
    deliver(std::move(e));
  }
  if (pipe_.empty() && source_ && !down_) pull();
}

void Link::deliver(PipeEntry e) {
  const TimeNs at = e.ser_end + cfg_.prop_delay;
  if (cross_shard_dst_ >= 0) {
    sim_.post_cross_keyed(cross_shard_dst_, at, dst_, std::move(e.pkt), e.h, e.k);
  } else {
    // Delivery is a future event that owns the packet (freed with the queue
    // if the run is cut short).
    sim_.at_keyed(at, e.h, e.k, DeliverEvent{dst_, std::move(e.pkt)});
  }
}

void Link::enable_wire_exit() {
  if (wire_exit_) return;
  settle();
  if (!pipe_.empty()) {
    UFAB_CHECK_MSG(!posts_at_commit(),
                   "wire-exit events enabled on a cut link with traffic: its crossings were "
                   "posted at commit and cannot be recalled");
    UFAB_CHECK_MSG(home_ == sim_.active_shard_handle(),
                   "wire-exit events enabled from a foreign shard");
    // The resident head delivery goes stale: packets already on the wire
    // become the delivery events their wire exits would have scheduled, and
    // the first one still serializing gets its wire-exit event.
    ++epoch_;
    for (; settled_ > 0; --settled_) {
      deliver(std::move(pipe_.front()));
      pipe_.pop_front();
    }
  }
  wire_exit_ = true;
  if (!pipe_.empty()) arm_front();
  check_pipe_order();
}

void Link::check_pipe_order() const {
#ifndef NDEBUG
  // The pipe's contract: each packet starts when it was committed or when
  // the wire freed, whichever is later (so ser_end increases front to back
  // and the FIFO can never reorder), and the settled prefix is exactly the
  // entries whose serialization ended by the link's clock.  The front's
  // predecessor has left the pipe, so the front is checked against its
  // commit alone.
  const TimeNs now = clock();
  for (std::size_t i = 0; i < pipe_.size(); ++i) {
    const PipeEntry& e = pipe_[i];
    const TimeNs start = e.ser_end - cfg_.capacity.tx_time(e.bytes);
    UFAB_CHECK_MSG(i == 0 ? start >= e.commit
                          : start == std::max(e.commit, pipe_[i - 1].ser_end),
                   "link pipe entry does not start when the wire frees");
    UFAB_CHECK_MSG((i < settled_) == (e.ser_end <= now),
                   "link pipe settled prefix is not the entries with ser_end <= now");
  }
#endif
}

void Link::set_down(bool down) {
  if (down_ == down) return;
  down_ = down;
  if (!down_) {
    kick();
    return;
  }
  settle();
  const std::size_t unsettled = pipe_.size() - settled_;
  if (unsettled == 0) return;
  // Packets past their serializer end are on the wire and still arrive;
  // the rest never leave.
  UFAB_CHECK_MSG(!posts_at_commit(),
                 "set_down on a cut link whose crossings were posted at commit: "
                 "enable_wire_exit() on links that flap");
  drops_ += static_cast<std::int64_t>(unsettled);
  if (settled_ == 0) ++epoch_;  // the resident front event pointed at a dropped entry
  while (pipe_.size() > settled_) pipe_.pop_back();
  queue_bytes_ = 0;
  check_pipe_order();
}

Bandwidth Link::tx_rate(TimeNs window) const {
  settle();
  if (checkpoints_.empty()) return Bandwidth::zero();
  const TimeNs now = clock();
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
