#include "src/ufab/edge_agent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/assert.hpp"
#include "src/obs/obs.hpp"
#include "src/ufab/token_assigner.hpp"

namespace ufab::edge {

namespace {
using sim::Packet;
using sim::PacketKind;
using sim::PacketPtr;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Demand stand-in for a backlogged pair: effectively unbounded.
constexpr double kUnboundedDemand = 1e30;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

EdgeAgent::EdgeAgent(topo::Network& net, const harness::VmMap& vms, HostId host, EdgeConfig cfg,
                     transport::TransportOptions topts, Rng rng)
    : TransportStack(net, vms, host, topts, rng),
      cfg_(cfg),
      wfq_(cfg.wfq_base_weight, cfg.wfq_quantum) {}

UfabConnection* EdgeAgent::ufab_connection(VmPairId pair) {
  return static_cast<UfabConnection*>(find_connection(pair));
}

void EdgeAgent::attach_obs(obs::Obs& obs) {
  TransportStack::attach_obs(obs);
  if (obs_ == nullptr) return;
  const obs::Labels labels{{"host", std::to_string(host_id().value())}};
  auto& m = obs.metrics();
  m.gauge_fn("edge.probes_sent", labels,
             [this] { return static_cast<double>(probes_sent_); });
  m.gauge_fn("edge.probe_bytes", labels,
             [this] { return static_cast<double>(probe_bytes_); });
  m.gauge_fn("edge.probe_timeouts", labels,
             [this] { return static_cast<double>(probe_timeouts_); });
  m.gauge_fn("edge.probe_retransmits", labels,
             [this] { return static_cast<double>(probe_retransmits_); });
  m.gauge_fn("edge.migrations", labels,
             [this] { return static_cast<double>(migrations_); });
  m.gauge_fn("edge.state_losses_detected", labels,
             [this] { return static_cast<double>(state_losses_detected_); });
  m.gauge_fn("edge.reregistrations", labels,
             [this] { return static_cast<double>(reregistrations_); });
  m.gauge_fn("edge.stale_telemetry_events", labels,
             [this] { return static_cast<double>(stale_telemetry_events_); });
  m.gauge_fn("edge.guarantee_degradations", labels,
             [this] { return static_cast<double>(guarantee_degradations_); });
  m.gauge_fn("edge.finish_retries", labels,
             [this] { return static_cast<double>(finish_retries_); });
  m.gauge_fn("edge.finish_abandoned", labels,
             [this] { return static_cast<double>(finish_abandoned_); });
}

void EdgeAgent::record_event(obs::EventKind kind, const UfabConnection& c, std::uint64_t seq,
                             double a, double b, std::uint8_t detail) {
  if (obs_ == nullptr || !obs_->enabled()) return;
  obs::TraceEvent ev;
  ev.at = simulator().now();
  ev.kind = kind;
  ev.detail = detail;
  ev.track = obs::Track::host(host_id());
  ev.pair = c.pair;
  ev.tenant = c.tenant;
  ev.seq = seq;
  ev.a = a;
  ev.b = b;
  obs_->record(ev);
}

std::unique_ptr<transport::Connection> EdgeAgent::make_connection() {
  return std::make_unique<UfabConnection>();
}

std::uint64_t EdgeAgent::registration_key(const UfabConnection& c, std::int32_t path_idx) const {
  // FNV over the source route identifies the physical path; mixing with the
  // pair key gives the per-(pair, path) registration identity switches use.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int32_t port : c.candidates.at(static_cast<std::size_t>(path_idx)).route) {
    h ^= static_cast<std::uint64_t>(port + 1);
    h *= 0x100000001b3ULL;
  }
  return mix64(c.pair.key() ^ mix64(h));
}

void EdgeAgent::on_connection_created(transport::Connection& conn) {
  auto& c = static_cast<UfabConnection&>(conn);
  UFAB_CHECK_MSG(!c.candidates.empty(), "uFAB requires source routing (path candidates)");
  // Initial sender token: an equal split of the VM's hose tokens across its
  // current outgoing pairs; the token epoch refines this continuously.
  int outgoing = 0;
  for (transport::Connection* other : conn_order_) {
    if (other->pair.src == c.pair.src) ++outgoing;
  }
  c.phi_s = vms().vm_tokens(c.pair.src) / std::max(1, outgoing);
  c.reg_key = registration_key(c, c.path_idx);
  c.window = std::max(bytes_for(c.phi(), c.base_rtt), cfg_.min_window_bytes);
  c.w_stage = c.window;
  c.epoch_started = simulator().now();

  wfq_.set_tenant_weight(c.tenant, vms().tenant_guarantee(c.tenant).bits_per_sec());
  wfq_.add(c.tenant, c.index + 1);
  ensure_token_timer();
}

bool EdgeAgent::can_send(const transport::Connection& conn) const {
  const auto& c = static_cast<const UfabConnection&>(conn);
  if (simulator().now() < c.data_blocked_until) return false;
  // Nearest-packet admission: send while at least half of the next packet
  // fits. Floor-rounding (strict fit) would waste up to one MTU of every
  // window and ceiling-rounding (inflight < window) would overshoot by one —
  // both distort weighted fairness badly at testbed scale where a window is
  // a handful of MTUs; rounding to nearest is unbiased.
  const std::int32_t next = c.next_wire_size(options().mtu_payload, sim::kDataHeaderBytes);
  if (next == 0) return false;
  return c.window - static_cast<double>(c.inflight_bytes) >= static_cast<double>(next) / 2.0;
}

void EdgeAgent::arm(transport::Connection& conn) { wfq_.arm(conn.index + 1); }

transport::Connection* EdgeAgent::next_sender(TimeNs& release) {
  (void)release;  // µFAB-E admits by window, never by pacing
  const TimeNs now = simulator().now();
  const auto sendable = [this, now](std::uint64_t entity) -> std::int32_t {
    const auto& c = static_cast<const UfabConnection&>(*conn_order_[entity - 1]);
    if (!c.has_backlog()) return 0;
    // Reorder-free migration gate: time alone reopens it, so stay armed.
    if (now < c.data_blocked_until) return -1;
    if (!can_send(c)) return 0;
    return c.next_wire_size(options().mtu_payload, sim::kDataHeaderBytes);
  };
#ifndef NDEBUG
  UFAB_CHECK_MSG(wfq_.audit(sendable) == 0, "uFAB-E: a VM pair that can send was never armed");
#endif
  const std::uint64_t entity = wfq_.next(sendable);
  return entity == 0 ? nullptr : conn_order_[entity - 1];
}

void EdgeAgent::on_data_sent(transport::Connection& conn, const sim::Packet& pkt) {
  (void)pkt;
  auto& c = static_cast<UfabConnection&>(conn);
  if (!c.probe_outstanding && cfg_.probe_mode == ProbeMode::kAdaptive &&
      c.bytes_sent_total - c.bytes_at_last_probe >= cfg_.probe_interval_bytes) {
    send_probe(c);
  }
}

void EdgeAgent::on_demand_arrived(transport::Connection& conn) {
  auto& c = static_cast<UfabConnection&>(conn);
  // Two-stage admission, Scenario 1 (new pair) and Scenario 2 (returning
  // demand): bootstrap at the guarantee (or last known share) BDP, then
  // increase additively until the Eqn-3 window takes over.
  const double target_bps = std::max(c.phi(), c.r_path_bps);
  if (cfg_.two_stage_admission) {
    c.bootstrap = true;
    c.w_stage = std::max(bytes_for(target_bps, c.base_rtt), window_floor(c));
    c.window = c.w_stage;
  } else {
    // uFAB': jump straight to the utilization window (last known, or a full
    // path BDP when unknown) — fast but with unbounded transient bursts.
    const double line_bps = host().nic().capacity().bits_per_sec() * cfg_.eta;
    c.window = std::max(bytes_for(line_bps, c.base_rtt), window_floor(c));
    c.bootstrap = false;
  }
  // Probe on demand arrival — but rate-limit to one per RTT so applications
  // issuing many small messages do not turn every request into a probe.
  if (!c.probe_outstanding &&
      (!c.registered || simulator().now() - c.probe_sent_at >= c.base_rtt)) {
    send_probe(c);
  }
  // Initial placement (§3.5): a joining pair scouts its candidate paths in
  // parallel and moves to a qualified, least-subscribed one — data starts on
  // the provisional path meanwhile, bounded by the bootstrap window.
  if (cfg_.initial_placement_scouting && c.scout_round == 0 && c.candidates.size() > 1 &&
      !c.scouting) {
    start_scouting(c, /*include_current=*/true);
  }
  arm(c);
}

double EdgeAgent::window_floor(const UfabConnection& c) const {
  (void)c;
  return cfg_.min_window_bytes;
}

// ---------------------------------------------------------------------------
// Probing
// ---------------------------------------------------------------------------

void EdgeAgent::send_probe(UfabConnection& c) {
  auto pkt = sim::make_packet(simulator().packet_pool(), PacketKind::kProbe, c.pair, c.tenant, host_id(), c.dst_host,
                          sim::probe_wire_size(0));
  pkt->probe.phi = c.phi();
  // The admission claim is reported as a *rate* (window / baseRTT, bytes/s),
  // so the aggregate W_l the core returns is RTT-neutral: pairs with short
  // base RTTs would otherwise convert the same window share into a larger
  // rate share (cf. Eqn 2, where the aggregate is a rate).
  pkt->probe.window = c.window / c.base_rtt.sec();
  pkt->probe.reg_key = c.reg_key;
  pkt->probe.seq = ++c.probe_seq;
  pkt->route = c.current_path().route;
  pkt->reverse_route = c.candidate_reverse[static_cast<std::size_t>(c.path_idx)].route;
  pkt->path_tag = PathId{c.path_idx};
  pkt->sent_at = simulator().now();
  pkt->ecn_capable = false;

  c.probe_outstanding = true;
  c.probe_sent_at = simulator().now();
  c.bytes_at_last_probe = c.bytes_sent_total;
  c.reg_phi = pkt->probe.phi;
  c.reg_window = pkt->probe.window;
  c.registered = true;
  ++probes_sent_;
  probe_bytes_ += sim::probe_wire_size(static_cast<std::int32_t>(pkt->route.size()));
  record_event(obs::EventKind::kProbeSent, c, c.probe_seq, pkt->probe.phi, pkt->probe.window);
  schedule_probe_timeout(c, c.probe_seq);
  send_control_packet(std::move(pkt));
}

void EdgeAgent::send_scout_probe(UfabConnection& c, std::int32_t path_idx) {
  auto pkt = sim::make_packet(simulator().packet_pool(), PacketKind::kProbe, c.pair, c.tenant, host_id(), c.dst_host,
                          sim::probe_wire_size(0));
  pkt->probe.scout = true;
  pkt->probe.phi = 0.0;
  pkt->probe.window = 0.0;
  pkt->probe.reg_key = registration_key(c, path_idx);
  pkt->probe.seq = c.scout_round;
  pkt->route = c.candidates[static_cast<std::size_t>(path_idx)].route;
  pkt->reverse_route = c.candidate_reverse[static_cast<std::size_t>(path_idx)].route;
  pkt->path_tag = PathId{path_idx};
  pkt->sent_at = simulator().now();
  pkt->ecn_capable = false;
  ++probes_sent_;
  probe_bytes_ += sim::probe_wire_size(static_cast<std::int32_t>(pkt->route.size()));
  record_event(obs::EventKind::kScoutSent, c, c.scout_round, static_cast<double>(path_idx), 0.0);
  send_control_packet(std::move(pkt));
}

void EdgeAgent::schedule_probe_timeout(UfabConnection& c, std::uint64_t seq) {
  const TimeNs deadline =
      simulator().now() + c.base_rtt.scaled(cfg_.probe_timeout_rtts);
  const VmPairId pair = c.pair;
  simulator().at(deadline, [this, pair, seq] {
    UfabConnection* conn = ufab_connection(pair);
    if (conn == nullptr || !conn->probe_outstanding || conn->probe_seq != seq) return;
    // Probe lost: the path is suspect. Retransmit with exponential backoff;
    // consecutive losses declare the path failed and force a migration (§4.1).
    ++probe_timeouts_;
    ++conn->probe_losses;
    conn->probe_outstanding = false;
    if (conn->probe_losses >= cfg_.probe_losses_to_migrate) {
      if (!conn->scouting) start_scouting(*conn);
      return;
    }
    const int shift = std::min(conn->probe_losses - 1, cfg_.probe_backoff_max_shift);
    const TimeNs wait =
        conn->base_rtt.scaled(cfg_.probe_backoff_rtts * static_cast<double>(1 << shift));
    ++probe_retransmits_;
    record_event(obs::EventKind::kProbeRetransmit, *conn, seq,
                 static_cast<double>(conn->probe_losses), 0.0);
    simulator().after(wait, [this, pair] {
      UfabConnection* c2 = ufab_connection(pair);
      // Skip if a newer probe went out meanwhile (demand arrival, cadence)
      // or the pair moved on to scouting.
      if (c2 != nullptr && !c2->probe_outstanding && !c2->scouting) send_probe(*c2);
    });
  });
}

void EdgeAgent::schedule_probe_floor(UfabConnection& c) {
  if (c.probe_floor_scheduled) return;
  c.probe_floor_scheduled = true;
  const VmPairId pair = c.pair;
  const TimeNs wake = simulator().now() + (cfg_.probe_mode == ProbeMode::kPeriodic
                                               ? c.base_rtt.scaled(cfg_.periodic_rtts)
                                               : c.base_rtt);
  simulator().at(wake, [this, pair] {
    UfabConnection* conn = ufab_connection(pair);
    if (conn == nullptr) return;
    conn->probe_floor_scheduled = false;
    if (!conn->probe_outstanding && (conn->has_backlog() || conn->inflight_bytes > 0)) {
      send_probe(*conn);
    }
  });
}

void EdgeAgent::on_control_packet(PacketPtr pkt) {
  switch (pkt->kind) {
    case PacketKind::kProbe:
      handle_probe_at_destination(std::move(pkt));
      return;
    case PacketKind::kFinishProbe:
      handle_finish_at_destination(std::move(pkt));
      return;
    case PacketKind::kProbeResponse:
      handle_response(std::move(pkt));
      return;
    default:
      return;  // credits etc. are not part of uFAB
  }
}

void EdgeAgent::handle_probe_at_destination(PacketPtr pkt) {
  double admitted = pkt->probe.phi;
  if (!pkt->probe.scout) {
    auto& entry = incoming_[pkt->pair.key()];
    const bool is_new = entry.last_seen == TimeNs::zero();
    entry.pair = pkt->pair;
    entry.requested = pkt->probe.phi;
    entry.last_seen = simulator().now();
    if (is_new) {
      // First sight: admit an equal share of the destination VM's tokens
      // until the next admission epoch refines it.
      int incoming_to_vm = 0;
      for (const auto& [key, in] : incoming_) {
        if (in.pair.dst == pkt->pair.dst) ++incoming_to_vm;
      }
      entry.admitted = vms().vm_tokens(pkt->pair.dst) / std::max(1, incoming_to_vm);
    }
    admitted = entry.admitted;
    ensure_token_timer();
  }

  if (obs_ != nullptr) {
    obs::TraceEvent ev;
    ev.at = simulator().now();
    ev.kind = obs::EventKind::kProbeEchoed;
    ev.track = obs::Track::host(host_id());
    ev.pair = pkt->pair;
    ev.tenant = pkt->tenant;
    ev.seq = pkt->probe.seq;
    ev.a = admitted;
    obs_->record(ev);
  }

  auto resp = sim::make_packet(simulator().packet_pool(), PacketKind::kProbeResponse, pkt->pair, pkt->tenant, host_id(),
                           pkt->src_host, pkt->size_bytes + 8);
  resp->probe = pkt->probe;
  resp->probe.phi_receiver = admitted;
  resp->telemetry = std::move(pkt->telemetry);
  resp->route = pkt->reverse_route;
  resp->path_tag = pkt->path_tag;
  resp->sent_at = pkt->sent_at;
  resp->ecn_capable = false;
  send_control_packet(std::move(resp));
}

void EdgeAgent::handle_finish_at_destination(PacketPtr pkt) {
  incoming_.erase(pkt->pair.key());
  auto resp = sim::make_packet(simulator().packet_pool(), PacketKind::kProbeResponse, pkt->pair, pkt->tenant, host_id(),
                           pkt->src_host, sim::kProbeBaseBytes);
  resp->probe = pkt->probe;  // carries the per-switch finish_acks count
  resp->route = pkt->reverse_route;
  resp->ecn_capable = false;
  send_control_packet(std::move(resp));
}

void EdgeAgent::handle_response(PacketPtr pkt) {
  UfabConnection* cp = ufab_connection(pkt->pair);
  if (cp == nullptr) return;
  UfabConnection& c = *cp;
  if (pkt->kind != PacketKind::kProbeResponse) return;

  if (pkt->probe.finish_acks > 0 && !pkt->probe.scout && pkt->probe.phi == 0.0 &&
      pkt->probe.window == 0.0 && pkt->telemetry.empty()) {
    // Finish-probe acknowledgment round trip.
    auto it = pending_finishes_.find(pkt->probe.reg_key);
    if (it != pending_finishes_.end() && pkt->probe.finish_acks >= it->second.expected_acks) {
      pending_finishes_.erase(it);
    }
    return;
  }
  if (pkt->probe.scout) {
    handle_scout_response(c, *pkt);
    return;
  }
  handle_data_response(c, *pkt);
}

// ---------------------------------------------------------------------------
// Control laws (Eqns 1-3 + two-stage admission)
// ---------------------------------------------------------------------------

EdgeAgent::PathEvaluation EdgeAgent::evaluate_path(UfabConnection& c, const sim::Packet& resp,
                                                   bool include_self) {
  PathEvaluation ev{kInf, kInf, true, true, 0.0};
  const double phi = c.phi();
  const double t_ns = static_cast<double>(c.base_rtt.ns());

  for (const sim::IntRecord& rec : resp.telemetry) {
    const double c_target = rec.capacity.bits_per_sec() * cfg_.eta;

    // When evaluating a *candidate* path (include_self == false), links the
    // candidate shares with the current path — the host downlink, typically —
    // already carry this pair's registration. Subtract it, or the pair would
    // double-count itself and never find a qualified migration target.
    double phi_reg = rec.phi_total;
    double w_reg = rec.window_total;
    if (!include_self && c.registered) {
      for (const LinkId shared : c.current_path().links) {
        if (shared == rec.link) {
          phi_reg = std::max(0.0, phi_reg - c.reg_phi);
          w_reg = std::max(0.0, w_reg - c.reg_window);
          break;
        }
      }
    }

    // TX rate: differentiate consecutive cumulative-byte samples (HPCC
    // style); fall back to the switch's own short-window estimate when no
    // prior sample exists or the record was wire-quantized (the Appendix-G
    // format carries the rate directly, not a byte counter).
    double tx_bps = rec.tx_rate_hint.bits_per_sec();
    auto& sample = c.link_samples[rec.link.value()];
    if (rec.tx_bytes_cum > 0 && sample.stamp != TimeNs::zero() && rec.stamp > sample.stamp) {
      const double dt_ns = static_cast<double>((rec.stamp - sample.stamp).ns());
      tx_bps = static_cast<double>(rec.tx_bytes_cum - sample.tx_bytes) * 8e9 / dt_ns;
    }
    // Switch state-loss detection: Φ_l is a sum of registered tokens and can
    // only fall by what deregisters. A collapse bigger than both the pair's
    // own φ and a large fraction of the previous reading means the register
    // bank was wiped (switch reboot) and is rebuilding from re-registration
    // probes — Eqn 1-3 shares computed from it are transiently inflated.
    if (include_self && c.registered && sample.phi_total >= 0.0) {
      const double drop = sample.phi_total - rec.phi_total;
      if (drop > std::max(c.reg_phi, cfg_.phi_discontinuity_frac * sample.phi_total)) {
        ev.phi_discontinuity = true;
      }
    }
    sample = {rec.tx_bytes_cum, rec.stamp, rec.phi_total};

    const double t_sec = t_ns / 1e9;
    const double claim_rate = c.window / t_sec;  // this pair's rate claim, B/s
    const double phi_l = include_self ? std::max(phi_reg, phi) : phi_reg;
    const double rate_sum = include_self ? std::max(w_reg, claim_rate) : w_reg;
    const double share = phi / std::max(phi_l, 1.0);

    // Eqn (1): proportional guaranteed share.
    const double r_l = share * c_target;

    // Eqns (2)-(3) in the rate domain: the pair's allocation is its token
    // share of the aggregate claimed rate, scaled by the utilization gap
    // (queue converted to rate surplus over one RTT), capped at the link's
    // target rate; the admission window is that rate x baseRTT.
    const double cap_rate = c_target / 8.0;  // bytes/s
    const double inflight_rate =
        tx_bps / 8.0 + static_cast<double>(rec.queue_bytes) / t_sec;
    const double factor = cap_rate / std::max(inflight_rate, 1.0);
    const double w_l = std::min(share * rate_sum * factor, cap_rate) * t_sec;

    ev.r_bps = std::min(ev.r_bps, r_l);
    ev.w_bytes = std::min(ev.w_bytes, w_l);
    // Qualification (B_u = 1: tokens are bps).
    if (c_target < phi_l) ev.qualified = false;
    if (c_target < phi_reg + phi) ev.qualified_as_new = false;
    ev.subscription_ratio = std::max(ev.subscription_ratio, (phi_reg + phi) / c_target);
  }
  if (resp.telemetry.empty()) {
    ev.w_bytes = c.window;
    ev.r_bps = c.r_path_bps;
  }
  return ev;
}

void EdgeAgent::apply_two_stage(UfabConnection& c, const PathEvaluation& eval) {
  if (!cfg_.two_stage_admission) {
    c.bootstrap = false;
    c.window = std::max(eval.w_bytes, window_floor(c));
    return;
  }
  if (c.bootstrap) {
    // Stage 1: additive increase by the pair's capacity share per RTT.
    c.w_stage += bytes_for(eval.r_bps, c.base_rtt);
    if (c.w_stage >= eval.w_bytes) {
      c.bootstrap = false;
      c.window = eval.w_bytes;
    } else {
      c.window = c.w_stage;
    }
  } else {
    c.window = eval.w_bytes;
  }
  c.window = std::max(c.window, window_floor(c));
}

void EdgeAgent::handle_data_response(UfabConnection& c, const sim::Packet& pkt) {
  if (pkt.probe.seq != c.probe_seq) return;  // stale response
  c.probe_outstanding = false;
  c.probe_losses = 0;
  c.last_response_at = simulator().now();
  if (cfg_.record_response_times) c.response_times.push_back(simulator().now());

  if (pkt.probe.phi_receiver > 0.0) {
    c.phi_r = pkt.probe.phi_receiver;
    c.phi_r_known = true;
  }

  const TimeNs now = simulator().now();
  const double old_window = c.window;
  const PathEvaluation eval = evaluate_path(c, pkt, /*include_self=*/true);

  // --- failure handling ---
  // Telemetry freshness: INT stamped many RTTs in the past means the switch
  // view is frozen (fault or wedged pipeline); Eqns 1-3 computed from it
  // would admit against a world that no longer exists.
  bool stale = false;
  if (!pkt.telemetry.empty()) {
    TimeNs oldest = TimeNs::max();
    for (const sim::IntRecord& rec : pkt.telemetry) oldest = std::min(oldest, rec.stamp);
    stale = now - oldest > c.base_rtt.scaled(cfg_.telemetry_stale_rtts);
  }
  if (stale) {
    ++stale_telemetry_events_;
    record_event(obs::EventKind::kStaleTelemetry, c, pkt.probe.seq, 0.0, 0.0);
  }
  if (eval.phi_discontinuity) {
    // A switch on the path lost its register state. This probe already
    // re-registered the pair there, but Φ_l/W_l reflect only the pairs that
    // have re-probed since the wipe, so shares are transiently inflated.
    ++state_losses_detected_;
    record_event(obs::EventKind::kStateLossDetected, c, pkt.probe.seq, 0.0, 0.0);
    c.guarantee_only_until = now + c.base_rtt.scaled(cfg_.reregister_hold_rtts);
  }
  const bool degraded = stale || now < c.guarantee_only_until;
  if (degraded) {
    // Guarantee-only window: admit exactly the pair's token BDP. The
    // guarantee needs no telemetry to be safe (§3.3: r >= φ by contract);
    // work conservation resumes once trustworthy telemetry returns.
    ++guarantee_degradations_;
    record_event(obs::EventKind::kGuaranteeDegraded, c, pkt.probe.seq, 0.0, 0.0);
    c.r_path_bps = c.phi();
    c.window = std::max(bytes_for(c.phi(), c.base_rtt), window_floor(c));
    if (cfg_.two_stage_admission) {
      c.bootstrap = true;  // re-enter the additive ramp when recovering
      c.w_stage = c.window;
    }
  } else {
    c.r_path_bps = eval.r_bps;
    c.path_qualified = eval.qualified;
    apply_two_stage(c, eval);
  }
  // Which term of Eqns 1-3 (or which fallback) bound this window; the order
  // mirrors the branches above (degraded wins, then the bootstrap ramp).
  obs::WindowBound bound = obs::WindowBound::kEqn3;
  if (degraded) {
    bound = obs::WindowBound::kGuaranteeOnly;
  } else if (c.bootstrap) {
    bound = obs::WindowBound::kBootstrapRamp;
  } else if (c.window <= window_floor(c)) {
    bound = obs::WindowBound::kFloor;
  }
  record_event(obs::EventKind::kWindowUpdate, c, pkt.probe.seq, old_window, c.window,
               static_cast<std::uint8_t>(bound));

  // Violations drive migration; frozen telemetry says nothing about the
  // path, so it must not trigger (or reset) the violation counter.
  if (!stale) note_violation(c, !eval.qualified);

  // Probe cadence (§4.1): self-clocked on L_m transmitted bytes, which
  // bounds the overhead at ~L_p/(L_p+L_m) regardless of the pair count
  // (Fig. 15b). A one-RTT floor applies only while the pair is ramping
  // (bootstrap) or its guarantee is violated — transient states that need
  // per-RTT feedback. Periodic mode (Fig. 18c ablation) probes every
  // `periodic_rtts` instead.
  if (eval.phi_discontinuity) {
    // Re-registration probe: rebuild the wiped registers at once instead of
    // waiting out the L_m byte cadence.
    ++reregistrations_;
    send_probe(c);
  } else if (c.has_backlog() || c.inflight_bytes > 0) {
    if (cfg_.probe_mode == ProbeMode::kPeriodic) {
      schedule_probe_floor(c);
    } else if (c.bytes_sent_total - c.bytes_at_last_probe >= cfg_.probe_interval_bytes) {
      send_probe(c);
    } else if (c.bootstrap || c.violations > 0 || !c.path_qualified || degraded) {
      schedule_probe_floor(c);
    }
  }
  arm(c);
  kick();
}

// ---------------------------------------------------------------------------
// Path migration (§3.5)
// ---------------------------------------------------------------------------

void EdgeAgent::note_violation(UfabConnection& c, bool violated) {
  if (!violated) {
    c.violations = 0;
    return;
  }
  ++c.violations;
  if (c.violations >= cfg_.violation_threshold && !c.scouting &&
      simulator().now() >= c.no_migrate_until && c.candidates.size() > 1) {
    start_scouting(c);
  }
}

void EdgeAgent::start_scouting(UfabConnection& c, bool include_current) {
  c.scouting = true;
  ++c.scout_round;
  c.scout_results.clear();
  // Scout up to `scout_paths` distinct candidates other than the current one
  // (plus the current path itself when choosing an initial placement).
  std::vector<std::int32_t> order;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(c.candidates.size()); ++i) {
    if (i != c.path_idx || include_current) order.push_back(i);
  }
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const auto j = i + static_cast<std::size_t>(rng().below(order.size() - i));
    std::swap(order[i], order[j]);
  }
  const std::size_t cap = include_current ? order.size() : cfg_.scout_paths;
  if (order.size() > cap) order.resize(cap);
  c.scouts_pending = static_cast<int>(order.size());
  if (c.scouts_pending == 0) {
    c.scouting = false;
    return;
  }
  for (const std::int32_t idx : order) send_scout_probe(c, idx);

  // Scout responses that never return should not wedge the state machine.
  const VmPairId pair = c.pair;
  const std::uint64_t round = c.scout_round;
  simulator().after(c.base_rtt.scaled(cfg_.probe_timeout_rtts), [this, pair, round] {
    UfabConnection* conn = ufab_connection(pair);
    if (conn != nullptr && conn->scouting && conn->scout_round == round) {
      finish_scouting(*conn);
    }
  });
}

void EdgeAgent::handle_scout_response(UfabConnection& c, const sim::Packet& pkt) {
  if (!c.scouting || pkt.probe.seq != c.scout_round) return;
  const PathEvaluation eval = evaluate_path(c, pkt, /*include_self=*/false);
  c.scout_results.push_back(UfabConnection::ScoutResult{
      pkt.path_tag.value(), eval.qualified_as_new, eval.subscription_ratio});
  if (--c.scouts_pending <= 0) finish_scouting(c);
}

void EdgeAgent::finish_scouting(UfabConnection& c) {
  c.scouting = false;
  c.scouts_pending = 0;

  std::int32_t best = -1;
  double best_ratio = kInf;
  for (const auto& s : c.scout_results) {
    if (s.qualified && s.subscription_ratio < best_ratio) {
      best_ratio = s.subscription_ratio;
      best = s.path_idx;
    }
  }
  const bool path_dead = c.probe_losses >= cfg_.probe_losses_to_migrate;
  if (best < 0 && path_dead) {
    // The current path is unusable: move to the least-subscribed candidate
    // even if it cannot serve every guarantee.
    for (const auto& s : c.scout_results) {
      if (s.subscription_ratio < best_ratio) {
        best_ratio = s.subscription_ratio;
        best = s.path_idx;
      }
    }
  }
  if (best >= 0 && best != c.path_idx) migrate_to(c, best);
  c.violations = 0;
  c.probe_losses = 0;
  // Freeze window: at most one migration per random [1, N]-RTT window (§3.5,
  // "avoiding oscillations").
  const auto rtts = rng().range(1, cfg_.freeze_window_max_rtts);
  c.no_migrate_until = simulator().now() + c.base_rtt * rtts;
  if (path_dead && best < 0 && !c.probe_outstanding) send_probe(c);
}

void EdgeAgent::migrate_to(UfabConnection& c, std::int32_t path_idx) {
  ++migrations_;
  record_event(obs::EventKind::kPathMigration, c, c.probe_seq,
               static_cast<double>(c.path_idx), static_cast<double>(path_idx));
  if (c.registered) {
    send_finish_probe(c, c.path_idx, c.reg_key, cfg_.finish_probe_retries);
  }
  c.path_idx = path_idx;
  c.reg_key = registration_key(c, path_idx);
  c.registered = false;
  c.reg_phi = 0.0;
  c.reg_window = 0.0;
  c.link_samples.clear();

  // Re-enter bootstrap on the new path (Scenario 2).
  if (cfg_.two_stage_admission) {
    c.bootstrap = true;
    c.w_stage = std::max(bytes_for(std::max(c.phi(), c.r_path_bps), c.base_rtt),
                         window_floor(c));
    c.window = c.w_stage;
  }
  if (cfg_.reorder_free_migration) {
    // Probe-only first RTT on the new path: packets on the old path drain.
    c.data_blocked_until = simulator().now() + c.base_rtt;
  }
  c.probe_outstanding = false;
  send_probe(c);
  arm(c);
}

void EdgeAgent::send_finish_probe(UfabConnection& c, std::int32_t path_idx,
                                  std::uint64_t reg_key, int retries_left) {
  const auto& path = c.candidates.at(static_cast<std::size_t>(path_idx));
  auto pkt = sim::make_packet(simulator().packet_pool(), PacketKind::kFinishProbe, c.pair, c.tenant, host_id(), c.dst_host,
                          sim::kProbeBaseBytes);
  pkt->probe.reg_key = reg_key;
  pkt->probe.phi = 0.0;
  pkt->probe.window = 0.0;
  pkt->route = path.route;
  pkt->reverse_route = c.candidate_reverse.at(static_cast<std::size_t>(path_idx)).route;
  pkt->ecn_capable = false;
  pending_finishes_[reg_key] =
      PendingFinish{static_cast<std::int32_t>(path.route.size()), retries_left};
  record_event(obs::EventKind::kFinishSent, c, reg_key, static_cast<double>(retries_left), 0.0);
  send_control_packet(std::move(pkt));

  // The paper retries the finish probe until every switch acknowledged; we
  // back off exponentially so retries ride out multi-ms path outages before
  // finally deferring to the core's silent-quit sweep.
  const VmPairId pair = c.pair;
  const int backoff_shift = std::max(0, cfg_.finish_probe_retries - retries_left);
  const TimeNs retry_at = c.base_rtt * (2LL << std::min(backoff_shift, 8));
  simulator().after(retry_at, [this, pair, path_idx, reg_key, retries_left] {
    auto it = pending_finishes_.find(reg_key);
    if (it == pending_finishes_.end()) return;  // acknowledged
    pending_finishes_.erase(it);
    if (retries_left <= 1) {
      // Budget exhausted: abandon leak-free (the pending entry is gone) and
      // let the core's silent-quit sweep reclaim the registration.
      ++finish_abandoned_;
      return;
    }
    UfabConnection* conn = ufab_connection(pair);
    if (conn != nullptr) {
      ++finish_retries_;
      send_finish_probe(*conn, path_idx, reg_key, retries_left - 1);
    }
  });
}

// ---------------------------------------------------------------------------
// Token epochs (Guarantee Partitioning, Appendix E)
// ---------------------------------------------------------------------------

void EdgeAgent::ensure_token_timer() {
  if (token_timer_running_) return;
  token_timer_running_ = true;
  simulator().after(cfg_.token_update_period, [this] {
    token_timer_running_ = false;
    token_epoch();
  });
}

void EdgeAgent::token_epoch() {
  const TimeNs now = simulator().now();
  const double period_ns = static_cast<double>(cfg_.token_update_period.ns());

  // --- Sender side: Algorithm 1 TOKENASSIGNMENT per local VM ---
  std::unordered_map<std::int32_t, std::vector<UfabConnection*>> by_vm;
  for (transport::Connection* conn : conn_order_) {
    auto* c = static_cast<UfabConnection*>(conn);
    const bool active = c->registered || c->has_backlog() || c->inflight_bytes > 0;
    if (active) by_vm[c->pair.src.value()].push_back(c);

    // Idle pairs eventually deregister with an explicit finish probe (§3.6).
    if (c->registered && !c->has_backlog() && c->inflight_bytes == 0 &&
        now - c->last_activity > cfg_.idle_finish_timeout) {
      send_finish_probe(*c, c->path_idx, c->reg_key, cfg_.finish_probe_retries);
      c->registered = false;
      c->reg_phi = 0.0;
      c->reg_window = 0.0;
    }
  }
  for (auto& [vm, conns] : by_vm) {
    std::vector<SenderPairView> views(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      UfabConnection* c = conns[i];
      const double measured_bps =
          static_cast<double>(c->bytes_sent_total - c->bytes_at_epoch) * 8e9 / period_ns;
      c->bytes_at_epoch = c->bytes_sent_total;
      views[i].demand_tokens = c->has_backlog() ? kUnboundedDemand : measured_bps;
      views[i].receiver_tokens = c->phi_r;
      views[i].receiver_known = c->phi_r_known;
    }
    assign_tokens(vms().vm_tokens(VmId{vm}), views);
    for (std::size_t i = 0; i < conns.size(); ++i) conns[i]->phi_s = views[i].assigned;
  }

  // --- Receiver side: Algorithm 1 TOKENADMISSION per local VM ---
  std::unordered_map<std::int32_t, std::vector<IncomingPair*>> by_dst_vm;
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    if (now - it->second.last_seen > 2 * cfg_.idle_finish_timeout) {
      it = incoming_.erase(it);
    } else {
      by_dst_vm[it->second.pair.dst.value()].push_back(&it->second);
      ++it;
    }
  }
  for (auto& [vm, entries] : by_dst_vm) {
    std::vector<ReceiverPairView> views(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      views[i].requested_tokens = entries[i]->requested;
    }
    admit_tokens(vms().vm_tokens(VmId{vm}), views);
    for (std::size_t i = 0; i < entries.size(); ++i) entries[i]->admitted = views[i].admitted;
  }

  if (!conn_order_.empty() || !incoming_.empty()) ensure_token_timer();
}

}  // namespace ufab::edge
