#include "src/faults/fault_plane.hpp"

#include <utility>

#include "src/core/assert.hpp"
#include "src/obs/obs.hpp"

namespace ufab::faults {

const char* to_string(LossClass c) {
  switch (c) {
    case LossClass::kAll:
      return "all";
    case LossClass::kProbeOnly:
      return "probe-only";
    case LossClass::kDataOnly:
      return "data-only";
  }
  return "?";
}

FaultPlane::FaultPlane(harness::Fabric& fab, std::uint64_t seed)
    : fab_(fab), rng_(Rng{seed}.fork("fault-plane")) {
  // Fault events flip link/switch state anywhere in the fabric and draw from
  // one shared RNG; under a sharded engine that is only well-defined when
  // shards execute one at a time.
  if (fab_.sim().shard_count() > 1) fab_.sim().require_sequential("fault-plane");
}

void FaultPlane::attach_obs(obs::Obs& obs) {
  if (!obs.enabled()) return;
  obs_ = &obs;
  auto& m = obs.metrics();
  m.gauge_fn("fault.link_downs", {},
             [this] { return static_cast<double>(counters_.link_downs); });
  m.gauge_fn("fault.link_ups", {},
             [this] { return static_cast<double>(counters_.link_ups); });
  m.gauge_fn("fault.loss_drops", {},
             [this] { return static_cast<double>(counters_.loss_drops); });
  m.gauge_fn("fault.switch_resets", {},
             [this] { return static_cast<double>(counters_.switch_resets); });
  m.gauge_fn("fault.stale_records", {},
             [this] { return static_cast<double>(counters_.stale_records); });
  m.gauge_fn("fault.corrupted_records", {},
             [this] { return static_cast<double>(counters_.corrupted_records); });
  m.gauge_fn("fault.stripped_records", {},
             [this] { return static_cast<double>(counters_.stripped_records); });
  m.gauge_fn("fault.bloom_junk_keys", {},
             [this] { return static_cast<double>(counters_.bloom_junk_keys); });
}

FaultPlane& FaultPlane::flap(LinkId link, TimeNs down_at, TimeNs up_at, int repeats,
                             TimeNs period) {
  UFAB_CHECK_MSG(fab_.net().link(link) != nullptr, "flap on unknown link");
  UFAB_CHECK_MSG(up_at > down_at, "flap must come back up after going down");
  UFAB_CHECK_MSG(repeats == 1 || period > up_at - down_at,
                 "repeating flap period must exceed the outage");
  flaps_.push_back(FlapSpec{link, down_at, up_at, repeats, period});
  return *this;
}

FaultPlane& FaultPlane::loss(LinkId link, double rate, LossClass klass, TimeNs from,
                             TimeNs until) {
  UFAB_CHECK_MSG(fab_.net().link(link) != nullptr, "loss on unknown link");
  UFAB_CHECK_MSG(rate >= 0.0 && rate <= 1.0, "loss rate must be a probability");
  loss_rules_[link.value()].push_back(LossRule{rate, klass, from, until});
  return *this;
}

FaultPlane& FaultPlane::reset_switch_state(NodeId sw, TimeNs at) {
  UFAB_CHECK_MSG(!fab_.core_agents_of(sw).empty(),
                 "reset_switch_state on a switch without uFAB-C agents");
  resets_.push_back(ResetSpec{sw, at});
  return *this;
}

FaultPlane& FaultPlane::stale_telemetry(NodeId sw, TimeNs from, TimeNs until) {
  UFAB_CHECK_MSG(!fab_.core_agents_of(sw).empty(),
                 "stale_telemetry on a switch without uFAB-C agents");
  tampers_[sw.value()].push_back(TamperSpec{TamperKind::kFreezeStamp, 1.0, from, until});
  return *this;
}

FaultPlane& FaultPlane::corrupt_telemetry(NodeId sw, double scale, TimeNs from, TimeNs until) {
  UFAB_CHECK_MSG(!fab_.core_agents_of(sw).empty(),
                 "corrupt_telemetry on a switch without uFAB-C agents");
  UFAB_CHECK_MSG(scale >= 0.0, "register scale must be non-negative");
  tampers_[sw.value()].push_back(TamperSpec{TamperKind::kScaleRegisters, scale, from, until});
  return *this;
}

FaultPlane& FaultPlane::strip_telemetry(NodeId sw, TimeNs from, TimeNs until) {
  UFAB_CHECK_MSG(!fab_.core_agents_of(sw).empty(),
                 "strip_telemetry on a switch without uFAB-C agents");
  tampers_[sw.value()].push_back(TamperSpec{TamperKind::kStrip, 1.0, from, until});
  return *this;
}

FaultPlane& FaultPlane::saturate_bloom(NodeId sw, std::size_t junk_keys, TimeNs at) {
  UFAB_CHECK_MSG(!fab_.core_agents_of(sw).empty(),
                 "saturate_bloom on a switch without uFAB-C agents");
  blooms_.push_back(BloomSpec{sw, junk_keys, at});
  return *this;
}

bool FaultPlane::matches(LossClass klass, const sim::Packet& pkt) {
  switch (klass) {
    case LossClass::kAll:
      return true;
    case LossClass::kProbeOnly:
      return pkt.kind == sim::PacketKind::kProbe || pkt.kind == sim::PacketKind::kProbeResponse ||
             pkt.kind == sim::PacketKind::kFinishProbe;
    case LossClass::kDataOnly:
      return pkt.kind == sim::PacketKind::kData;
  }
  return false;
}

void FaultPlane::arm_flap(const FlapSpec& spec) {
  sim::Link* link = fab_.net().link(spec.link);
  // A flapped link gets wire-exit events: a *cut* link otherwise posts its
  // cross-shard crossing at commit, and a later set_down(true) could not
  // recall it.  The option is schedule-neutral and set on every partition
  // (the flap schedule is partition-invariant), so per-hop event counts stay
  // byte-identical across shard counts.
  link->enable_wire_exit();
  // The flap runs on the link's own shard (root keys are shared, so its
  // order is the same on every partition): set_down then sees exactly the
  // packets a plain run's does, not the state of a shard lagging mid-window.
  const auto scope = fab_.sim().scoped(fab_.shard_of_node(fab_.net().link_owner(spec.link)));
  for (int k = 0; k < spec.repeats; ++k) {
    const TimeNs shift = spec.period * k;
    fab_.sim().at(spec.down_at + shift, [this, link] {
      link->set_down(true);
      ++counters_.link_downs;
      if (obs_ != nullptr) {
        obs::TraceEvent ev;
        ev.at = fab_.sim().now();
        ev.kind = obs::EventKind::kLinkDown;
        ev.track = obs::Track::link(link->id());
        ev.link = link->id();
        obs_->record(ev);
      }
    });
    fab_.sim().at(spec.up_at + shift, [this, link] {
      link->set_down(false);
      ++counters_.link_ups;
      if (obs_ != nullptr) {
        obs::TraceEvent ev;
        ev.at = fab_.sim().now();
        ev.kind = obs::EventKind::kLinkUp;
        ev.track = obs::Track::link(link->id());
        ev.link = link->id();
        obs_->record(ev);
      }
    });
  }
}

void FaultPlane::arm() {
  UFAB_CHECK_MSG(!armed_, "FaultPlane::arm() called twice");
  armed_ = true;

  for (const FlapSpec& spec : flaps_) arm_flap(spec);

  // One filter per link, scanning that link's rules in declaration order.
  // A packet is dropped by the first rule whose window and class match and
  // whose Bernoulli draw fires; draws are only consumed for matching rules,
  // keeping unrelated scenarios on the same seed independent.
  for (auto& [link_value, rules] : loss_rules_) {
    sim::Link* link = fab_.net().link(LinkId{link_value});
    link->set_fault_filter([this, rules = rules, link_value = link_value](const sim::Packet& pkt) {
      const TimeNs now = fab_.sim().now();
      for (const LossRule& rule : rules) {
        if (now < rule.from || now >= rule.until) continue;
        if (!matches(rule.klass, pkt)) continue;
        if (rng_.uniform() < rule.rate) {
          ++counters_.loss_drops;
          if (obs_ != nullptr) {
            obs::TraceEvent ev;
            ev.at = now;
            ev.kind = obs::EventKind::kFaultLossDrop;
            ev.track = obs::Track::link(LinkId{link_value});
            ev.pair = pkt.pair;
            ev.tenant = pkt.tenant;
            ev.link = LinkId{link_value};
            ev.seq = pkt.id;
            ev.a = static_cast<double>(pkt.size_bytes);
            obs_->record(ev);
          }
          return true;
        }
      }
      return false;
    });
  }

  for (const ResetSpec& spec : resets_) {
    fab_.sim().at(spec.at, [this, sw = spec.sw] {
      for (telemetry::CoreAgent* agent : fab_.core_agents_of(sw)) agent->reset_state();
      ++counters_.switch_resets;
      if (obs_ != nullptr) {
        // The injection itself, on the switch's own track; each CoreAgent
        // also records its per-egress kSwitchReset from inside reset_state().
        obs::TraceEvent ev;
        ev.at = fab_.sim().now();
        ev.kind = obs::EventKind::kSwitchReset;
        ev.track = obs::Track::switch_port(sw, -1);
        obs_->record(ev);
      }
    });
  }

  for (auto& [sw_value, specs] : tampers_) {
    for (telemetry::CoreAgent* agent : fab_.core_agents_of(NodeId{sw_value})) {
      agent->set_int_tamper(
          [this, specs = specs, sw_value = sw_value](sim::IntRecord& rec, TimeNs now) {
        const auto tampered = [&](std::uint8_t detail) {
          if (obs_ == nullptr) return;
          obs::TraceEvent ev;
          ev.at = now;
          ev.kind = obs::EventKind::kIntTamper;
          ev.detail = detail;  // 0=stale 1=corrupt 2=strip
          ev.track = obs::Track::switch_port(NodeId{sw_value}, -1);
          ev.link = rec.link;
          obs_->record(ev);
        };
        for (const TamperSpec& spec : specs) {
          if (now < spec.from || now >= spec.until) continue;
          switch (spec.kind) {
            case TamperKind::kFreezeStamp:
              rec.stamp = spec.from;
              ++counters_.stale_records;
              tampered(0);
              break;
            case TamperKind::kScaleRegisters:
              rec.phi_total *= spec.scale;
              rec.window_total *= spec.scale;
              ++counters_.corrupted_records;
              tampered(1);
              break;
            case TamperKind::kStrip:
              ++counters_.stripped_records;
              tampered(2);
              return false;
          }
        }
        return true;
      });
    }
  }

  for (const BloomSpec& spec : blooms_) {
    fab_.sim().at(spec.at, [this, spec] {
      for (telemetry::CoreAgent* agent : fab_.core_agents_of(spec.sw)) {
        for (std::size_t i = 0; i < spec.junk_keys; ++i) {
          agent->inject_bloom_junk(rng_());
          ++counters_.bloom_junk_keys;
        }
      }
      if (obs_ != nullptr) {
        obs::TraceEvent ev;
        ev.at = fab_.sim().now();
        ev.kind = obs::EventKind::kBloomJunk;
        ev.track = obs::Track::switch_port(spec.sw, -1);
        ev.a = static_cast<double>(spec.junk_keys);
        obs_->record(ev);
      }
    });
  }
}

}  // namespace ufab::faults
