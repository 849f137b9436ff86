#include "src/obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "src/core/assert.hpp"
#include "src/core/shard_context.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"

namespace ufab::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kProbeSent:
      return "probe_sent";
    case EventKind::kScoutSent:
      return "scout_sent";
    case EventKind::kProbeRetransmit:
      return "probe_retransmit";
    case EventKind::kProbeEchoed:
      return "probe_echoed";
    case EventKind::kWindowUpdate:
      return "window_update";
    case EventKind::kPathMigration:
      return "path_migration";
    case EventKind::kFinishSent:
      return "finish_sent";
    case EventKind::kStateLossDetected:
      return "state_loss_detected";
    case EventKind::kStaleTelemetry:
      return "stale_telemetry";
    case EventKind::kGuaranteeDegraded:
      return "guarantee_degraded";
    case EventKind::kDataRetransmit:
      return "data_retransmit";
    case EventKind::kProbeIntStamp:
      return "probe_int_stamp";
    case EventKind::kRegisterWrite:
      return "register_write";
    case EventKind::kRegisterClear:
      return "register_clear";
    case EventKind::kBloomInsert:
      return "bloom_insert";
    case EventKind::kBloomRemove:
      return "bloom_remove";
    case EventKind::kBloomClear:
      return "bloom_clear";
    case EventKind::kSwitchReset:
      return "switch_reset";
    case EventKind::kDrop:
      return "drop";
    case EventKind::kEcnMark:
      return "ecn_mark";
    case EventKind::kLinkDown:
      return "link_down";
    case EventKind::kLinkUp:
      return "link_up";
    case EventKind::kFaultLossDrop:
      return "fault_loss_drop";
    case EventKind::kIntTamper:
      return "int_tamper";
    case EventKind::kBloomJunk:
      return "bloom_junk";
    case EventKind::kCheckFailure:
      return "check_failure";
  }
  return "?";
}

const char* to_string(WindowBound bound) {
  switch (bound) {
    case WindowBound::kBootstrapRamp:
      return "bootstrap_ramp";
    case WindowBound::kEqn3:
      return "eqn3";
    case WindowBound::kGuaranteeOnly:
      return "guarantee_only";
    case WindowBound::kFloor:
      return "floor";
  }
  return "?";
}

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kTailDrop:
      return "tail_drop";
    case DropReason::kLinkDown:
      return "link_down";
    case DropReason::kWireFault:
      return "wire_fault";
    case DropReason::kNoRoute:
      return "no_route";
  }
  return "?";
}

namespace {

/// Stable per-TrackKind Chrome "process" id so every host, switch egress,
/// tenant, and link family renders as its own named process group.
int pid_of(TrackKind kind) {
  switch (kind) {
    case TrackKind::kHost:
      return 1;
    case TrackKind::kSwitch:
      return 2;
    case TrackKind::kTenant:
      return 3;
    case TrackKind::kLink:
      return 4;
    case TrackKind::kFabric:
      return 5;
  }
  return 5;
}

const char* pid_name(TrackKind kind) {
  switch (kind) {
    case TrackKind::kHost:
      return "hosts";
    case TrackKind::kSwitch:
      return "switches";
    case TrackKind::kTenant:
      return "tenants";
    case TrackKind::kLink:
      return "links";
    case TrackKind::kFabric:
      return "fabric";
  }
  return "fabric";
}

/// Chrome "thread" id: unique per (id, sub) within a process group.
std::int64_t tid_of(const Track& t) {
  return static_cast<std::int64_t>(t.id + 1) * 1024 + (t.sub + 1);
}

std::string default_track_name(const Track& t) {
  char buf[64];
  switch (t.kind) {
    case TrackKind::kHost:
      std::snprintf(buf, sizeof(buf), "host-%d", t.id);
      break;
    case TrackKind::kSwitch:
      std::snprintf(buf, sizeof(buf), "switch-%d/port-%d", t.id, t.sub);
      break;
    case TrackKind::kTenant:
      std::snprintf(buf, sizeof(buf), "tenant-%d", t.id);
      break;
    case TrackKind::kLink:
      std::snprintf(buf, sizeof(buf), "link-%d", t.id);
      break;
    case TrackKind::kFabric:
      std::snprintf(buf, sizeof(buf), "fabric");
      break;
  }
  return buf;
}

std::string pair_str(VmPairId pair) {
  if (!pair.valid()) return "";
  return std::to_string(pair.src.value()) + "->" + std::to_string(pair.dst.value());
}

/// Stable flow id binding one probe's causal chain across tracks.
std::uint64_t flow_id(const TraceEvent& ev) {
  std::uint64_t x = ev.pair.key() ^ (ev.seq * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 31);
}

bool is_probe_chain(EventKind kind) {
  return kind == EventKind::kProbeSent || kind == EventKind::kProbeIntStamp ||
         kind == EventKind::kProbeEchoed || kind == EventKind::kWindowUpdate;
}

std::string detail_str(const TraceEvent& ev) {
  switch (ev.kind) {
    case EventKind::kWindowUpdate:
      return to_string(static_cast<WindowBound>(ev.detail));
    case EventKind::kDrop:
      return to_string(static_cast<DropReason>(ev.detail));
    case EventKind::kIntTamper:
      return ev.detail == 0 ? "stale" : ev.detail == 1 ? "corrupt" : "strip";
    default:
      return "";
  }
}

std::string event_args_json(const TraceEvent& ev) {
  char buf[128];
  std::string args;
  if (ev.pair.valid()) args += "\"pair\": \"" + pair_str(ev.pair) + "\", ";
  if (ev.tenant.valid()) args += "\"tenant\": " + std::to_string(ev.tenant.value()) + ", ";
  if (ev.link.valid()) args += "\"link\": " + std::to_string(ev.link.value()) + ", ";
  if (ev.seq != 0) args += "\"seq\": " + std::to_string(ev.seq) + ", ";
  const std::string detail = detail_str(ev);
  if (!detail.empty()) args += "\"detail\": \"" + detail + "\", ";
  std::snprintf(buf, sizeof(buf), "\"a\": %.12g, \"b\": %.12g", ev.a, ev.b);
  args += buf;
  return args;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : cap_(capacity) {
  UFAB_CHECK_MSG(capacity > 0, "flight recorder needs a non-empty ring");
  rings_[0] = std::make_unique<Ring>();
  rings_[0]->buf.resize(cap_);
}

FlightRecorder::Ring& FlightRecorder::ring_for(int shard) {
  auto& slot = rings_[static_cast<std::size_t>(shard) % kMaxRings];
  if (slot == nullptr) {
    // First record from this shard; only that shard's thread touches the slot
    // during a run, so lazy creation is race-free.
    slot = std::make_unique<Ring>();
    slot->buf.resize(cap_);
  }
  return *slot;
}

void FlightRecorder::record(const TraceEvent& ev) {
  Ring& r = ring_for(current_shard_index());
  r.buf[static_cast<std::size_t>(r.total % r.buf.size())] = ev;
  ++r.total;
}

std::size_t FlightRecorder::size() const {
  std::size_t n = 0;
  for (const auto& r : rings_) {
    if (r != nullptr) {
      n += static_cast<std::size_t>(std::min<std::uint64_t>(r->total, r->buf.size()));
    }
  }
  return n;
}

std::uint64_t FlightRecorder::recorded_total() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) {
    if (r != nullptr) n += r->total;
  }
  return n;
}

std::vector<const TraceEvent*> FlightRecorder::ordered() const {
  // Concatenate the per-shard rings (each oldest first), then stable-sort by
  // timestamp: equal-time events keep (shard, ring position) order, so the
  // merged view is deterministic, and unchanged when only shard 0 recorded.
  std::vector<const TraceEvent*> out;
  out.reserve(size());
  for (const auto& r : rings_) {
    if (r == nullptr) continue;
    const std::uint64_t n = std::min<std::uint64_t>(r->total, r->buf.size());
    for (std::uint64_t i = r->total - n; i < r->total; ++i) {
      out.push_back(&r->buf[static_cast<std::size_t>(i % r->buf.size())]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->at < b->at; });
  return out;
}

std::vector<TraceEvent> FlightRecorder::events() const {
  const std::vector<const TraceEvent*> order = ordered();
  std::vector<TraceEvent> out;
  out.reserve(order.size());
  for (const TraceEvent* ev : order) out.push_back(*ev);
  return out;
}

std::vector<TraceEvent> FlightRecorder::events_for_pair(VmPairId pair) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent* ev : ordered()) {
    if (ev->pair == pair) out.push_back(*ev);
  }
  return out;
}

void FlightRecorder::clear() {
  for (auto& r : rings_) {
    if (r != nullptr) r->total = 0;
  }
}

void FlightRecorder::write_json(std::ostream& os) const {
  const std::vector<const TraceEvent*> evs = ordered();
  os << "{\n  \"recorded_total\": " << recorded_total() << ",\n  \"events\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& ev = *evs[i];
    std::snprintf(buf, sizeof(buf), "    {\"t_ns\": %lld, \"kind\": \"%s\", \"track\": \"%s\", ",
                  static_cast<long long>(ev.at.ns()), to_string(ev.kind),
                  default_track_name(ev.track).c_str());
    os << buf << event_args_json(ev) << (i + 1 < evs.size() ? "},\n" : "}\n");
  }
  os << "  ]\n}\n";
}

void FlightRecorder::write_chrome_trace(std::ostream& os, const TrackNamer& namer,
                                        const Profiler* profiler, int shard_count) const {
  const std::vector<const TraceEvent*> evs = ordered();
  // Schema 2 = schema 1 plus profiler counter tracks (pid 6) and this
  // explicit version key; render_trace.py uses it to catch version-mixed
  // traces (e.g. prof.* counters spliced into an old schema-1 export).
  os << "{\"ufab_schema\": 2, \"traceEvents\": [\n";

  // Metadata: name every process group and every track that appears,
  // including the per-tenant counter tracks fed by window updates (below).
  std::map<std::pair<int, std::int64_t>, Track> tracks;
  std::set<int> pids;
  for (const TraceEvent* e : evs) {
    const TraceEvent& ev = *e;
    pids.insert(pid_of(ev.track.kind));
    tracks.emplace(std::make_pair(pid_of(ev.track.kind), tid_of(ev.track)), ev.track);
    if (ev.kind == EventKind::kWindowUpdate && ev.tenant.valid()) {
      const Track tt = Track::tenant(ev.tenant);
      pids.insert(pid_of(tt.kind));
      tracks.emplace(std::make_pair(pid_of(tt.kind), tid_of(tt)), tt);
    }
  }
  bool first = true;
  const auto emit = [&os, &first](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };
  for (const int pid : pids) {
    const TrackKind kind = pid == 1   ? TrackKind::kHost
                           : pid == 2 ? TrackKind::kSwitch
                           : pid == 3 ? TrackKind::kTenant
                           : pid == 4 ? TrackKind::kLink
                                      : TrackKind::kFabric;
    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " + std::to_string(pid) +
         ", \"args\": {\"name\": \"" + pid_name(kind) + "\"}}");
  }
  for (const auto& [key, track] : tracks) {
    const std::string name = namer ? namer(track) : default_track_name(track);
    emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " + std::to_string(key.first) +
         ", \"tid\": " + std::to_string(key.second) + ", \"args\": {\"name\": \"" +
         json_escape(name) + "\"}}");
  }

  // Events.  Probe-chain events become tiny slices joined by flow arrows so
  // chrome://tracing / Perfetto draws each probe's causal path end to end;
  // everything else is an instant on its track.
  char head[256];
  for (const TraceEvent* e : evs) {
    const TraceEvent& ev = *e;
    const double ts_us = static_cast<double>(ev.at.ns()) / 1e3;
    const int pid = pid_of(ev.track.kind);
    const std::int64_t tid = tid_of(ev.track);
    const std::string args = event_args_json(ev);
    if (is_probe_chain(ev.kind) && ev.pair.valid()) {
      std::snprintf(head, sizeof(head),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %lld, "
                    "\"ts\": %.3f, \"dur\": 0.2, \"args\": {",
                    to_string(ev.kind), pid, static_cast<long long>(tid), ts_us);
      emit(std::string(head) + args + "}}");
      const char flow_ph = ev.kind == EventKind::kProbeSent      ? 's'
                           : ev.kind == EventKind::kWindowUpdate ? 'f'
                                                                 : 't';
      std::snprintf(head, sizeof(head),
                    "{\"name\": \"probe\", \"cat\": \"probe\", \"ph\": \"%c\", \"id\": "
                    "\"0x%llx\", \"pid\": %d, \"tid\": %lld, \"ts\": %.3f%s}",
                    flow_ph, static_cast<unsigned long long>(flow_id(ev)), pid,
                    static_cast<long long>(tid), ts_us,
                    flow_ph == 'f' ? ", \"bp\": \"e\"" : "");
      emit(head);
    } else {
      std::snprintf(head, sizeof(head),
                    "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"pid\": %d, "
                    "\"tid\": %lld, \"ts\": %.3f, \"args\": {",
                    to_string(ev.kind), pid, static_cast<long long>(tid), ts_us);
      emit(std::string(head) + args + "}}");
    }
    // Tenant-track counter: the admitted window over time, one counter series
    // per tenant ("one track per tenant" in the exported view).
    if (ev.kind == EventKind::kWindowUpdate && ev.tenant.valid()) {
      std::snprintf(head, sizeof(head),
                    "{\"name\": \"window_bytes\", \"ph\": \"C\", \"pid\": %d, \"tid\": %lld, "
                    "\"ts\": %.3f, \"args\": {\"window\": %.12g}}",
                    pid_of(TrackKind::kTenant),
                    static_cast<long long>(tid_of(Track::tenant(ev.tenant))), ts_us, ev.b);
      emit(head);
    }
  }
  if (profiler != nullptr) profiler->write_chrome_counter_events(os, first, shard_count);
  os << "\n]}\n";
}

}  // namespace ufab::obs
