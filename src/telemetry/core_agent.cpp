#include "src/telemetry/core_agent.hpp"

#include <algorithm>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/obs/profiler.hpp"
#include "src/telemetry/int_codec.hpp"

namespace ufab::telemetry {

CoreAgent::CoreAgent(sim::Simulator& sim, CoreConfig cfg)
    : sim_(sim), cfg_(cfg), bloom_(cfg.bloom) {
  if (cfg_.clean_period > TimeNs::zero()) {
    sim_.after(cfg_.clean_period, [this] { sweep(sim_.now()); });
  }
}

void CoreAgent::record_event(obs::EventKind kind, TimeNs now, VmPairId pair, TenantId tenant,
                             std::uint64_t seq, double a, double b) {
  if (obs_ == nullptr) return;
  obs::TraceEvent ev;
  ev.at = now;
  ev.kind = kind;
  ev.track = track_;
  ev.pair = pair;
  ev.tenant = tenant;
  ev.seq = seq;
  ev.a = a;
  ev.b = b;
  obs_->record(ev);
}

void CoreAgent::on_probe_egress(sim::Packet& pkt, sim::Link& link, TimeNs now) {
  UFAB_PROF_SCOPE(obs::ProfCat::kTelemetry);
  if (pkt.kind == sim::PacketKind::kFinishProbe) {
    handle_finish(pkt, now);
    return;
  }
  handle_probe(pkt, now);
  // Write the INT record after updating the registers (workflow step 3: the
  // probe carries the *updated* aggregate downstream).  The record is
  // composed directly in the probe's inline INT stack, with no stack
  // temporary copied in (DESIGN.md §13).
  sim::IntRecord& rec = pkt.telemetry.emplace_back();
  rec.link = link.id();
  rec.phi_total = phi_total_;
  rec.window_total = window_total_;
  rec.tx_bytes_cum = link.tx_bytes_cum();
  rec.stamp = now;
  rec.tx_rate_hint = link.tx_rate();
  rec.queue_bytes = link.queue_bytes();
  rec.capacity = link.capacity();
  if (cfg_.quantize_int) IntCodec::quantize(rec);
  if (tamper_ && !tamper_(rec, now)) {
    ++suppressed_records_;
    pkt.telemetry.pop_back();
    return;
  }
  if (obs_ != nullptr) {
    obs::TraceEvent ev;
    ev.at = now;
    ev.kind = obs::EventKind::kProbeIntStamp;
    ev.track = track_;
    ev.pair = pkt.pair;
    ev.tenant = pkt.tenant;
    ev.link = link.id();
    ev.seq = pkt.probe.seq;
    ev.a = rec.phi_total;
    ev.b = static_cast<double>(rec.queue_bytes);
    obs_->record(ev);
  }
}

void CoreAgent::reset_state() {
  registered_.clear();
  bloom_.clear();
  phi_total_ = 0.0;
  window_total_ = 0.0;
  ++resets_;
  const TimeNs now = sim_.now();
  record_event(obs::EventKind::kSwitchReset, now, {}, {}, 0, 0.0, 0.0);
  record_event(obs::EventKind::kBloomClear, now, {}, {}, 0, 0.0, 0.0);
  // The sweep timer keeps running: it is part of the switch program, not of
  // the lost register state, and re-arms itself.
}

void CoreAgent::handle_probe(sim::Packet& pkt, TimeNs now) {
  const auto& pf = pkt.probe;
  const std::uint64_t key = pf.reg_key;
  const bool seen = cfg_.use_bloom ? bloom_.maybe_contains(key) : registered_.contains(key);
  if (!seen) {
    if (cfg_.use_bloom) bloom_.insert(key);
    registered_[key] = PairEntry{pf.phi, pf.window, now};
    phi_total_ += pf.phi;
    window_total_ += pf.window;
    record_event(obs::EventKind::kBloomInsert, now, pkt.pair, pkt.tenant, key, 0.0, 0.0);
    record_event(obs::EventKind::kRegisterWrite, now, pkt.pair, pkt.tenant, key, phi_total_,
                 window_total_);
    return;
  }
  auto it = registered_.find(key);
  if (it == registered_.end()) {
    // Bloom false positive on a genuinely new pair: the pair is omitted from
    // the registers (Phi_l and W_l run smaller than truth; §3.6 analyses why
    // this is safe). The omission heals at the next sweep, which rebuilds
    // membership from actual probe activity.
    ++fp_omissions_;
    return;
  }
  phi_total_ += pf.phi - it->second.phi;
  window_total_ += pf.window - it->second.window;
  it->second.phi = pf.phi;
  it->second.window = pf.window;
  it->second.last_seen = now;
  clamp_registers();
  record_event(obs::EventKind::kRegisterWrite, now, pkt.pair, pkt.tenant, key, phi_total_,
               window_total_);
}

void CoreAgent::handle_finish(sim::Packet& pkt, TimeNs now) {
  const std::uint64_t key = pkt.probe.reg_key;
  auto it = registered_.find(key);
  if (it != registered_.end()) {
    phi_total_ -= it->second.phi;
    window_total_ -= it->second.window;
    registered_.erase(it);
    if (cfg_.use_bloom) bloom_.remove(key);
    clamp_registers();
    record_event(obs::EventKind::kBloomRemove, now, pkt.pair, pkt.tenant, key, 0.0, 0.0);
    record_event(obs::EventKind::kRegisterClear, now, pkt.pair, pkt.tenant, key, phi_total_,
                 window_total_);
  }
  // Acknowledge even if already gone — the edge retries finish probes until
  // every switch on the path has confirmed (§3.6).
  ++pkt.probe.finish_acks;
}

void CoreAgent::sweep(TimeNs now) {
  std::vector<std::uint64_t> stale;
  for (const auto& [key, entry] : registered_) {
    if (now - entry.last_seen >= cfg_.clean_period) stale.push_back(key);
  }
  for (const std::uint64_t key : stale) {
    auto it = registered_.find(key);
    phi_total_ -= it->second.phi;
    window_total_ -= it->second.window;
    registered_.erase(it);
    if (cfg_.use_bloom) bloom_.remove(key);
    record_event(obs::EventKind::kRegisterClear, now, {}, {}, key, phi_total_, window_total_);
  }
  clamp_registers();
  sim_.after(cfg_.clean_period, [this] { sweep(sim_.now()); });
}

void CoreAgent::clamp_registers() {
  // Floating-point residue from long add/subtract chains must never turn the
  // registers negative.
  phi_total_ = std::max(0.0, phi_total_);
  window_total_ = std::max(0.0, window_total_);
}

std::vector<std::unique_ptr<CoreAgent>> instrument_switch(sim::Simulator& sim, sim::Switch& sw,
                                                          const CoreConfig& cfg) {
  std::vector<std::unique_ptr<CoreAgent>> agents;
  agents.reserve(static_cast<std::size_t>(sw.port_count()));
  for (std::int32_t p = 0; p < sw.port_count(); ++p) {
    agents.push_back(std::make_unique<CoreAgent>(sim, cfg));
    sw.set_egress_processor(p, agents.back().get());
  }
  return agents;
}

}  // namespace ufab::telemetry
