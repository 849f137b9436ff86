#include "src/baselines/pwc_transport.hpp"

#include <algorithm>

#include "src/core/assert.hpp"

namespace ufab::baselines {

namespace {
using sim::Packet;
using sim::PacketKind;
using sim::PacketPtr;
}  // namespace

PwcTransport::PwcTransport(topo::Network& net, const harness::VmMap& vms, HostId host,
                           PwcConfig cfg, transport::TransportOptions topts, Rng rng)
    : TransportStack(net, vms, host, topts, rng),
      cfg_(cfg),
      wfq_(cfg.wfq_base_weight, 1500) {}

std::unique_ptr<transport::Connection> PwcTransport::make_connection() {
  return std::make_unique<PwcConnection>();
}

void PwcTransport::on_connection_created(transport::Connection& conn) {
  auto& c = static_cast<PwcConnection&>(conn);
  const double tokens = vms().vm_tokens(c.pair.src);
  c.swift = std::make_unique<SwiftCc>(cfg_.swift, c.base_rtt, tokens / cfg_.weight_unit_bps);
  c.clove = std::make_unique<CloveSelector>(cfg_.clove, std::max<std::size_t>(1, c.candidates.size()),
                                            rng().fork(c.pair.key()));
  wfq_.set_tenant_weight(c.tenant, vms().tenant_guarantee(c.tenant).bits_per_sec());
  wfq_.add(c.tenant, c.index + 1);
}

bool PwcTransport::can_send(const transport::Connection& conn) const {
  const auto& c = static_cast<const PwcConnection&>(conn);
  const std::int32_t next = c.next_wire_size(options().mtu_payload, sim::kDataHeaderBytes);
  if (next == 0) return false;
  return c.swift->cwnd_bytes() - static_cast<double>(c.inflight_bytes) >=
         static_cast<double>(next) / 2.0;
}

TimeNs PwcTransport::earliest_send(const transport::Connection& conn) const {
  return static_cast<const PwcConnection&>(conn).next_send_at;
}

void PwcTransport::on_data_sent(transport::Connection& conn, const sim::Packet& pkt) {
  auto& c = static_cast<PwcConnection&>(conn);
  if (c.credit_bps > 0.0) {
    // Receiver-driven pacing: spread packets at the advertised rate.
    const double gap_ns = static_cast<double>(pkt.size_bytes) * 8e9 / c.credit_bps;
    const TimeNs base = std::max(c.next_send_at, simulator().now());
    c.next_send_at = base + TimeNs{static_cast<std::int64_t>(gap_ns)};
  }
}

void PwcTransport::on_ack(transport::Connection& conn, const sim::Packet& ack,
                          std::optional<TimeNs> rtt) {
  auto& c = static_cast<PwcConnection&>(conn);
  if (rtt.has_value()) c.swift->on_ack(*rtt, ack.payload, simulator().now());
  c.clove->on_ack(ack.path_tag.value(), ack.ecn_echo);
}

void PwcTransport::select_path(transport::Connection& conn) {
  auto& c = static_cast<PwcConnection&>(conn);
  if (c.candidates.empty()) return;
  c.path_idx = c.clove->select(simulator().now());
}

void PwcTransport::arm(transport::Connection& conn) { wfq_.arm(conn.index + 1); }

transport::Connection* PwcTransport::next_sender(TimeNs& release) {
  // PicNIC's sender-side bandwidth envelope: WFQ across tenants.
  const TimeNs now = simulator().now();
  const auto sendable = [this, now, &release](std::uint64_t entity) -> std::int32_t {
    const transport::Connection& c = *conn_order_[entity - 1];
    if (!c.has_backlog() || !can_send(c)) return 0;
    // Paced: time alone releases it, so it stays armed.
    if (const TimeNs at = earliest_send(c); at > now) {
      release = std::min(release, at);
      return -1;
    }
    return c.next_wire_size(options().mtu_payload, sim::kDataHeaderBytes);
  };
#ifndef NDEBUG
  UFAB_CHECK_MSG(wfq_.audit(sendable) == 0, "PWC: a connection that can send was never armed");
#endif
  const std::uint64_t entity = wfq_.next(sendable);
  return entity == 0 ? nullptr : conn_order_[entity - 1];
}

void PwcTransport::on_data_received(const sim::Packet& pkt) {
  auto& a = arrivals_[pkt.pair.key()];
  a.pair = pkt.pair;
  a.tenant = pkt.tenant;
  a.src_host = pkt.src_host;
  a.bytes_in_period += pkt.payload;
  a.last_seen = simulator().now();
  ensure_rcm_timer();
}

void PwcTransport::ensure_rcm_timer() {
  if (rcm_running_) return;
  rcm_running_ = true;
  simulator().after(cfg_.rcm_period, [this] {
    rcm_running_ = false;
    rcm_tick();
  });
}

void PwcTransport::rcm_tick() {
  const double period_sec = cfg_.rcm_period.sec();
  const double line_bps = host().nic().capacity().bits_per_sec();
  const TimeNs now = simulator().now();

  // Measure arrivals and expire idle entries.
  double total_bps = 0.0;
  std::vector<Arrival*> active;
  for (auto it = arrivals_.begin(); it != arrivals_.end();) {
    Arrival& a = it->second;
    if (now - a.last_seen > 8 * cfg_.rcm_period) {
      it = arrivals_.erase(it);
      continue;
    }
    total_bps += static_cast<double>(a.bytes_in_period) * 8.0 / period_sec;
    active.push_back(&a);
    ++it;
  }

  if (!active.empty() && total_bps > cfg_.congestion_threshold * line_bps) {
    // Weighted max-min over (tenant-weighted) senders with demand caps.
    struct Item {
      Arrival* a;
      double weight;
      double demand;
      double alloc = 0.0;
    };
    std::vector<Item> items;
    items.reserve(active.size());
    for (Arrival* a : active) {
      const double w = vms().tenant_guarantee(a->tenant).bits_per_sec();
      const double measured = static_cast<double>(a->bytes_in_period) * 8.0 / period_sec;
      items.push_back({a, w, measured * cfg_.demand_headroom, 0.0});
    }
    // Progressive filling: pour capacity proportionally to weights; capped
    // items return their slack to the pool.
    double capacity = cfg_.congestion_threshold * line_bps;
    std::vector<Item*> open;
    for (auto& it2 : items) open.push_back(&it2);
    for (int round = 0; round < 8 && !open.empty() && capacity > 1.0; ++round) {
      double weight_sum = 0.0;
      for (Item* it2 : open) weight_sum += it2->weight;
      double next_capacity = 0.0;
      std::vector<Item*> still_open;
      for (Item* it2 : open) {
        const double offer = capacity * it2->weight / weight_sum;
        const double room = it2->demand - it2->alloc;
        if (offer >= room) {
          it2->alloc = it2->demand;
          next_capacity += offer - room;
        } else {
          it2->alloc += offer;
          still_open.push_back(it2);
        }
      }
      capacity = next_capacity;
      open = std::move(still_open);
      if (open.empty()) break;
    }
    for (const Item& it2 : items) {
      auto credit = sim::make_packet(simulator().packet_pool(), PacketKind::kCredit, it2.a->pair, it2.a->tenant, host_id(),
                                 it2.a->src_host, sim::kCreditBytes);
      credit->credit_rate = Bandwidth::bps(std::max(it2.alloc, 1e6));
      send_control_packet(std::move(credit));
      ++credits_sent_;
    }
  } else {
    // No receiver congestion: lift any caps.
    for (Arrival* a : active) {
      auto credit = sim::make_packet(simulator().packet_pool(), PacketKind::kCredit, a->pair, a->tenant, host_id(),
                                 a->src_host, sim::kCreditBytes);
      credit->credit_rate = Bandwidth::bps(line_bps);
      send_control_packet(std::move(credit));
      ++credits_sent_;
    }
  }

  for (Arrival* a : active) a->bytes_in_period = 0;
  if (!arrivals_.empty()) ensure_rcm_timer();
}

void PwcTransport::on_control_packet(PacketPtr pkt) {
  if (pkt->kind != PacketKind::kCredit) return;
  auto* conn = static_cast<PwcConnection*>(find_connection(pkt->pair));
  if (conn == nullptr) return;
  conn->credit_bps = pkt->credit_rate.bits_per_sec();
  kick();
}

}  // namespace ufab::baselines
