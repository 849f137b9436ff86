#include "src/transport/transport.hpp"

#include <algorithm>

#include "src/core/assert.hpp"
#include "src/obs/obs.hpp"

namespace ufab::transport {

namespace {
using sim::Packet;
using sim::PacketKind;
using sim::PacketPtr;

/// The RTO sweep grid: sweeps land only on multiples of this, so a packet
/// is resent at the first tick past its deadline (0-50 us late).
constexpr TimeNs kRtxScanInterval{50'000};  // 50 us
}  // namespace

TransportStack::TransportStack(topo::Network& net, const harness::VmMap& vms, HostId host,
                               TransportOptions opts, Rng rng)
    : net_(net), vms_(vms), sim_(net.simulator()), host_(host), opts_(opts), rng_(rng) {
  net_.host(host_).set_stack(this);
}

TransportStack::~TransportStack() = default;

void TransportStack::attach_obs(obs::Obs& obs) {
  if (!obs.enabled()) return;
  obs_ = &obs;
  const obs::Labels labels{{"host", std::to_string(host_.value())}};
  obs.metrics().gauge_fn("transport.retransmits", labels,
                         [this] { return static_cast<double>(retransmits_); });
  obs.metrics().gauge_fn("transport.connections", labels, [this] {
    return static_cast<double>(conn_order_.size());
  });
  obs.metrics().gauge_fn("transport.rtt_p99_us", labels, [this] { return rtt_p99_us(); });
}

double TransportStack::rtt_p99_us() const {
  if (opts_.bounded_rtt_stats) {
    return rtt_stream_us_.empty() ? 0.0 : rtt_stream_us_.quantile(0.99);
  }
  return rtt_us_.count() > 0 ? rtt_us_.percentile(99.0) : 0.0;
}

Connection* TransportStack::find_connection(VmPairId pair) {
  auto it = conns_.find(pair);
  return it == conns_.end() ? nullptr : it->second.get();
}

Connection& TransportStack::connection(VmPairId pair, TenantId tenant) {
  if (auto it = conns_.find(pair); it != conns_.end()) return *it->second;
  auto conn = make_connection();
  conn->pair = pair;
  conn->tenant = tenant;
  conn->src_host = host_;
  conn->dst_host = vms_.host_of(pair.dst);
  UFAB_CHECK_MSG(conn->dst_host != host_, "VM pair endpoints on the same host");
  conn->base_rtt = net_.base_rtt(host_, conn->dst_host);
  conn->rto = conn->base_rtt.scaled(opts_.rto_rtts);
  assign_candidate_paths(*conn);
  Connection& ref = *conn;
  conn->index = static_cast<std::uint32_t>(conn_order_.size());
  conn_order_.push_back(conn.get());
  conns_.emplace(pair, std::move(conn));
  on_connection_created(ref);
  return ref;
}

void TransportStack::assign_candidate_paths(Connection& conn) {
  conn.candidates.clear();
  conn.candidate_reverse.clear();
  if (!opts_.source_routing) return;
  const auto& all = net_.paths(host_, conn.dst_host, 64);
  if (all.size() <= opts_.candidate_paths) {
    conn.candidates = all;
  } else {
    // Random subset without replacement (deterministic per stack RNG).
    std::vector<std::size_t> idx(all.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t i = 0; i < opts_.candidate_paths; ++i) {
      const auto j = i + static_cast<std::size_t>(rng_.below(idx.size() - i));
      std::swap(idx[i], idx[j]);
      conn.candidates.push_back(all[idx[i]]);
    }
  }
  conn.candidate_reverse.reserve(conn.candidates.size());
  for (const auto& p : conn.candidates) {
    conn.candidate_reverse.push_back(net_.reverse(p, host_, conn.dst_host));
  }
  conn.path_idx = static_cast<std::int32_t>(rng_.below(conn.candidates.size()));
}

std::uint64_t TransportStack::send_message(Message msg) {
  UFAB_CHECK(msg.size_bytes > 0);
  UFAB_CHECK_MSG(vms_.host_of(msg.pair.src) == host_, "message source VM not on this host");
  if (msg.id == 0) msg.id = next_msg_id_++;
  if (msg.created_at == TimeNs::zero()) msg.created_at = sim_.now();
  if (vms_.host_of(msg.pair.dst) == host_) {
    // Intra-host traffic never touches the fabric: deliver via the software
    // loopback with a small fixed latency.
    constexpr TimeNs kLoopbackDelay{2'000};
    sim_.after(kLoopbackDelay, [this, msg] {
      if (sink_ != nullptr) sink_->on_message_delivered(msg, sim_.now());
      if (sent_cb_) sent_cb_(msg, sim_.now());
    });
    return msg.id;
  }
  Connection& conn = connection(msg.pair, msg.tenant);
  const bool was_idle = !conn.has_backlog() && conn.inflight_bytes == 0;
  conn.pending_msgs[msg.id] = Connection::PendingMessage{msg.size_bytes, msg};
  conn.sendq.push_back(msg);
  if (was_idle) on_demand_arrived(conn);
  arm(conn);
  kick();
  return msg.id;
}

void TransportStack::kick() { host().notify_sendable(); }

void TransportStack::kick_at(TimeNs t) {
  if (kick_pending_ && t >= pending_kick_at_) return;
  kick_pending_ = true;
  pending_kick_at_ = t;
  sim_.at(t, [this, t] {
    if (pending_kick_at_ == t) {
      kick_pending_ = false;
      pending_kick_at_ = TimeNs::max();
    }
    kick();
  });
}

void TransportStack::send_control_packet(PacketPtr pkt) { host().send_control(std::move(pkt)); }

Connection* TransportStack::next_sender(TimeNs& release) {
  if (conn_order_.empty()) return nullptr;
  const TimeNs now = sim_.now();
  for (std::size_t i = 0; i < conn_order_.size(); ++i) {
    rr_cursor_ = (rr_cursor_ + 1) % conn_order_.size();
    Connection* c = conn_order_[rr_cursor_];
    if (!c->has_backlog() || !can_send(*c)) continue;
    const TimeNs at = earliest_send(*c);
    if (at <= now) return c;
    release = std::min(release, at);
  }
  return nullptr;
}

PacketPtr TransportStack::pull() {
  TimeNs release = TimeNs::max();
  Connection* c = next_sender(release);
  if (c == nullptr) {
    // Nothing sendable now: if some connection is only pacing-blocked,
    // schedule a wake-up at its release time.
    if (release != TimeNs::max() && release > sim_.now()) kick_at(release);
    return nullptr;
  }
  return c->rtx_queue.empty() ? make_data_packet(*c) : make_rtx_packet(*c);
}

PacketPtr TransportStack::make_data_packet(Connection& conn) {
  UFAB_CHECK(!conn.sendq.empty());
  select_path(conn);
  Message& m = conn.sendq.front();
  const std::int64_t remaining = m.size_bytes - conn.cur_offset;
  const auto payload = static_cast<std::int32_t>(
      std::min<std::int64_t>(opts_.mtu_payload, remaining));
  auto pkt = sim::make_packet(sim_.packet_pool(), PacketKind::kData, conn.pair, conn.tenant, host_, conn.dst_host,
                          payload + sim::kDataHeaderBytes);
  pkt->message_id = m.id;
  pkt->seq = conn.cur_offset;
  pkt->payload = payload;
  pkt->message_size = m.size_bytes;
  pkt->msg_created = m.created_at;
  pkt->user_tag = m.user_tag;
  pkt->last_of_message = conn.cur_offset + payload >= m.size_bytes;
  pkt->sent_at = sim_.now();
  if (!conn.candidates.empty()) {
    pkt->route = conn.current_path().route;
    pkt->reverse_route = conn.candidate_reverse[static_cast<std::size_t>(conn.path_idx)].route;
    pkt->path_tag = PathId{conn.path_idx};
  }

  conn.outstanding.emplace(
      pkt->id, Connection::Outstanding{m.id, m.user_tag, conn.cur_offset, pkt->size_bytes,
                                       payload, m.size_bytes, m.created_at, sim_.now(),
                                       /*retransmitted=*/false, pkt->last_of_message});
  conn.inflight_bytes += pkt->size_bytes;
  conn.bytes_sent_total += payload;
  conn.cur_offset += payload;
  conn.last_activity = sim_.now();
  if (conn.cur_offset >= m.size_bytes) {
    conn.sendq.pop_front();
    conn.cur_offset = 0;
  }
  ensure_rtx_scan(sim_.now() + conn.rto);
  on_data_sent(conn, *pkt);
  return pkt;
}

PacketPtr TransportStack::make_rtx_packet(Connection& conn) {
  UFAB_CHECK(!conn.rtx_queue.empty());
  select_path(conn);
  Connection::Outstanding o = conn.rtx_queue.front();
  conn.rtx_queue.pop_front();
  auto pkt = sim::make_packet(sim_.packet_pool(), PacketKind::kData, conn.pair, conn.tenant, host_, conn.dst_host,
                          o.wire_bytes);
  pkt->message_id = o.msg_id;
  pkt->seq = o.offset;
  pkt->payload = o.payload;
  pkt->message_size = o.msg_size;
  pkt->msg_created = o.msg_created;
  pkt->user_tag = o.user_tag;
  pkt->last_of_message = o.last;
  pkt->sent_at = sim_.now();
  if (!conn.candidates.empty()) {
    pkt->route = conn.current_path().route;
    pkt->reverse_route = conn.candidate_reverse[static_cast<std::size_t>(conn.path_idx)].route;
    pkt->path_tag = PathId{conn.path_idx};
  }
  o.sent_at = sim_.now();
  o.retransmitted = true;
  conn.outstanding.emplace(pkt->id, o);
  conn.inflight_bytes += o.wire_bytes;
  conn.last_activity = sim_.now();
  ++retransmits_;
  if (obs_ != nullptr && obs_->record_datapath()) {
    obs::TraceEvent ev;
    ev.at = sim_.now();
    ev.kind = obs::EventKind::kDataRetransmit;
    ev.track = obs::Track::host(host_);
    ev.pair = conn.pair;
    ev.tenant = conn.tenant;
    ev.seq = pkt->id;
    ev.a = static_cast<double>(o.wire_bytes);
    obs_->record(ev);
  }
  ensure_rtx_scan(sim_.now() + conn.rto);
  on_data_sent(conn, *pkt);
  return pkt;
}

void TransportStack::ensure_rtx_scan(TimeNs deadline) {
  // The first grid tick strictly after the deadline: the earliest sweep at
  // which `now - sent_at > rto` holds.
  const TimeNs tick{(deadline.ns() / kRtxScanInterval.ns() + 1) * kRtxScanInterval.ns()};
  if (tick >= rtx_scan_at_) return;
  rtx_scan_at_ = tick;
  const std::uint64_t gen = ++rtx_scan_gen_;
  sim_.at(tick, [this, gen] {
    if (gen != rtx_scan_gen_) return;
    rtx_scan_at_ = TimeNs::max();
    scan_for_timeouts();
  });
}

void TransportStack::scan_for_timeouts() {
  const TimeNs now = sim_.now();
  TimeNs next_deadline = TimeNs::max();
  bool gained_rtx = false;
  std::vector<Connection::Outstanding> expired;
  for (Connection* conn : conn_order_) {
    // `outstanding` is keyed by packet id, whose values depend on pool
    // layout; collect expired entries and order them by send history so the
    // retransmit order is a function of the traffic, not of hash iteration.
    expired.clear();
    for (auto it = conn->outstanding.begin(); it != conn->outstanding.end();) {
      const TimeNs age = now - it->second.sent_at;
#ifndef NDEBUG
      // Every send arms a sweep at the first tick past its deadline, so no
      // packet can be found more than one tick overdue.
      UFAB_CHECK_MSG(age <= conn->rto + kRtxScanInterval,
                     "RTO sweep found a packet overdue by more than one tick: a send path "
                     "did not arm ensure_rtx_scan");
#endif
      if (age > conn->rto) {
        conn->inflight_bytes -= it->second.wire_bytes;
        expired.push_back(it->second);
        it = conn->outstanding.erase(it);
        gained_rtx = true;
      } else {
        next_deadline = std::min(next_deadline, it->second.sent_at + conn->rto);
        ++it;
      }
    }
    std::sort(expired.begin(), expired.end(),
              [](const Connection::Outstanding& a, const Connection::Outstanding& b) {
                if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
                if (a.msg_id != b.msg_id) return a.msg_id < b.msg_id;
                return a.offset < b.offset;
              });
    for (auto& o : expired) conn->rtx_queue.push_back(std::move(o));
    if (!expired.empty()) arm(*conn);
  }
  // Survivors re-arm at the earliest deadline; requeued packets re-arm when
  // make_rtx_packet resends them.
  if (next_deadline != TimeNs::max()) ensure_rtx_scan(next_deadline);
  if (gained_rtx) kick();
}

void TransportStack::on_packet(PacketPtr pkt) {
  switch (pkt->kind) {
    case PacketKind::kData:
      handle_data(std::move(pkt));
      return;
    case PacketKind::kAck:
      handle_ack(std::move(pkt));
      return;
    default:
      on_control_packet(std::move(pkt));
      return;
  }
}

void TransportStack::handle_data(PacketPtr pkt) {
  for (const auto& tap : rx_taps_) tap(*pkt);
  on_data_received(*pkt);
  // Reassembly bookkeeping.
  auto& per_pair = rx_[pkt->pair.key()];
  auto it = per_pair.find(pkt->message_id);
  if (it == per_pair.end()) {
    Reassembly r;
    r.msg.id = pkt->message_id;
    r.msg.pair = pkt->pair;
    r.msg.tenant = pkt->tenant;
    r.msg.size_bytes = pkt->message_size;
    r.msg.created_at = pkt->msg_created;
    r.msg.user_tag = pkt->user_tag;
    const auto chunks = static_cast<std::size_t>(
        (pkt->message_size + opts_.mtu_payload - 1) / opts_.mtu_payload);
    r.chunks.assign(std::max<std::size_t>(1, chunks), false);
    it = per_pair.emplace(pkt->message_id, std::move(r)).first;
  }
  Reassembly& r = it->second;
  const auto chunk = static_cast<std::size_t>(pkt->seq / opts_.mtu_payload);
  if (chunk < r.chunks.size() && !r.chunks[chunk]) {
    r.chunks[chunk] = true;
    r.received += pkt->payload;
  }
  const bool complete = r.received >= r.msg.size_bytes;

  // Per-packet ACK along the reverse route (control priority).
  auto ack = sim::make_packet(sim_.packet_pool(), PacketKind::kAck, pkt->pair, pkt->tenant, host_, pkt->src_host,
                          sim::kAckBytes);
  ack->acked_packet_id = pkt->id;
  ack->message_id = pkt->message_id;
  ack->seq = pkt->seq;
  ack->payload = pkt->payload;
  ack->sent_at = pkt->sent_at;
  ack->ecn_echo = pkt->ecn_ce;
  ack->path_tag = pkt->path_tag;
  ack->route = pkt->reverse_route;
  send_control_packet(std::move(ack));

  if (complete) {
    if (sink_ != nullptr) sink_->on_message_delivered(r.msg, sim_.now());
    per_pair.erase(it);
  }
}

void TransportStack::handle_ack(PacketPtr pkt) {
  auto cit = conns_.find(pkt->pair);
  if (cit == conns_.end()) return;
  Connection& conn = *cit->second;

  Connection::Outstanding o;
  bool found = false;
  if (auto it = conn.outstanding.find(pkt->acked_packet_id); it != conn.outstanding.end()) {
    o = it->second;
    conn.outstanding.erase(it);
    conn.inflight_bytes -= o.wire_bytes;
    found = true;
  } else {
    // The packet may have been moved to the retransmit queue by a timeout
    // that raced with this (late) ACK: cancel the spurious retransmit.
    for (auto it2 = conn.rtx_queue.begin(); it2 != conn.rtx_queue.end(); ++it2) {
      if (it2->msg_id == pkt->message_id && it2->offset == pkt->seq) {
        o = *it2;
        conn.rtx_queue.erase(it2);
        found = true;
        break;
      }
    }
  }
  if (!found) {
    on_ack(conn, *pkt, std::nullopt);  // duplicate ACK: scheme may still care
    return;
  }

  std::optional<TimeNs> rtt;
  if (!o.retransmitted) {
    rtt = sim_.now() - o.sent_at;
    if (opts_.bounded_rtt_stats) {
      rtt_stream_us_.add(rtt->us());
    } else {
      rtt_us_.add(rtt->us());
    }
    conn.last_rtt = *rtt;
  }

  if (auto pm = conn.pending_msgs.find(o.msg_id); pm != conn.pending_msgs.end()) {
    pm->second.remaining -= o.payload;
    if (pm->second.remaining <= 0) {
      if (sent_cb_) sent_cb_(pm->second.meta, sim_.now());
      conn.pending_msgs.erase(pm);
    }
  }
  on_ack(conn, *pkt, rtt);
  arm(conn);
  kick();
}

}  // namespace ufab::transport
