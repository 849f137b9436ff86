#include "src/obs/flight_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstring>
#include <map>
#include <set>
#include <string_view>

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

/// The event's sub-code as text, or null when its kind has none.
const char* detail_of(const TraceEvent& ev) {
  switch (ev.kind) {
    case EventKind::kWindowUpdate:
      return to_string(static_cast<WindowBound>(ev.detail));
    case EventKind::kDrop:
      return to_string(static_cast<DropReason>(ev.detail));
    case EventKind::kIntTamper:
      return ev.detail == 0 ? "stale" : ev.detail == 1 ? "corrupt" : "strip";
    default:
      return nullptr;
  }
}

/// Export sink: each field is formatted in place with std::to_chars into one
/// fixed buffer, and the buffer goes to the stream in large writes.  The
/// formats are printf's: dec() is %d/%lld/%llu, hex() 0x%llx, g12() %.12g and
/// f3() %.3f, so the bytes match a printf writer's.  Nothing allocates.
class ExportBuffer {
 public:
  explicit ExportBuffer(std::ostream& os) : os_(os) {}

  ExportBuffer& lit(std::string_view s) {
    if (s.size() > buf_.size() - len_) {
      flush();
      if (s.size() > buf_.size()) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    std::memcpy(buf_.data() + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }
  template <std::integral Int>
  ExportBuffer& dec(Int v) {
    return put(std::to_chars(room(), end(), v));
  }
  ExportBuffer& hex(std::uint64_t v) {
    lit("0x");
    return put(std::to_chars(room(), end(), v, 16));
  }
  ExportBuffer& g12(double v) {
    return put(std::to_chars(room(), end(), v, std::chars_format::general, 12));
  }
  ExportBuffer& f3(double v) {
    return put(std::to_chars(room(), end(), v, std::chars_format::fixed, 3));
  }

  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  /// Room for any one number, so to_chars never runs out: the longest is
  /// DBL_MAX at %.3f, 313 characters.
  static constexpr std::size_t kNumberRoom = 320;

  char* room() {
    if (buf_.size() - len_ < kNumberRoom) flush();
    return buf_.data() + len_;
  }
  char* end() { return buf_.data() + buf_.size(); }
  ExportBuffer& put(std::to_chars_result r) {
    len_ = static_cast<std::size_t>(r.ptr - buf_.data());
    return *this;
  }

  std::ostream& os_;
  std::size_t len_ = 0;
  std::array<char, 16 * 1024> buf_{};  ///< Large writes, little stack.
};

/// The generic track label ("host-3", "switch-5/port-2") used without a namer.
void put_track_name(ExportBuffer& out, const Track& t) {
  switch (t.kind) {
    case TrackKind::kHost:
      out.lit("host-").dec(t.id);
      break;
    case TrackKind::kSwitch:
      out.lit("switch-").dec(t.id).lit("/port-").dec(t.sub);
      break;
    case TrackKind::kTenant:
      out.lit("tenant-").dec(t.id);
      break;
    case TrackKind::kLink:
      out.lit("link-").dec(t.id);
      break;
    case TrackKind::kFabric:
      out.lit("fabric");
      break;
  }
}

/// The event's JSON args body (without braces); both exports share it.
void put_args(ExportBuffer& out, const TraceEvent& ev) {
  if (ev.pair.valid()) {
    out.lit("\"pair\": \"").dec(ev.pair.src.value()).lit("->").dec(ev.pair.dst.value());
    out.lit("\", ");
  }
  if (ev.tenant.valid()) out.lit("\"tenant\": ").dec(ev.tenant.value()).lit(", ");
  if (ev.link.valid()) out.lit("\"link\": ").dec(ev.link.value()).lit(", ");
  if (ev.seq != 0) out.lit("\"seq\": ").dec(ev.seq).lit(", ");
  if (const char* detail = detail_of(ev)) out.lit("\"detail\": \"").lit(detail).lit("\", ");
  out.lit("\"a\": ").g12(ev.a).lit(", \"b\": ").g12(ev.b);
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
  const auto earlier = [](const TraceEvent* a, const TraceEvent* b) { return a->at < b->at; };
  // One ring recorded in time order is the common case; a stable sort of a
  // sorted range would change nothing.
  if (!std::is_sorted(out.begin(), out.end(), earlier)) {
    std::stable_sort(out.begin(), out.end(), earlier);
  }
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
  ExportBuffer out(os);
  out.lit("{\n  \"recorded_total\": ").dec(recorded_total()).lit(",\n  \"events\": [\n");
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& ev = *evs[i];
    out.lit("    {\"t_ns\": ").dec(ev.at.ns()).lit(", \"kind\": \"").lit(to_string(ev.kind));
    out.lit("\", \"track\": \"");
    put_track_name(out, ev.track);
    out.lit("\", ");
    put_args(out, ev);
    out.lit(i + 1 < evs.size() ? "},\n" : "}\n");
  }
  out.lit("  ]\n}\n");
  out.flush();
}

void FlightRecorder::write_chrome_trace(std::ostream& os, const TrackNamer& namer,
                                        const Profiler* profiler, int shard_count) const {
  const std::vector<const TraceEvent*> evs = ordered();
  ExportBuffer out(os);
  // Schema 2 = schema 1 plus profiler counter tracks (pid 6) and this
  // explicit version key; render_trace.py uses it to catch version-mixed
  // traces (e.g. prof.* counters spliced into an old schema-1 export).
  out.lit("{\"ufab_schema\": 2, \"traceEvents\": [\n");

  // Metadata: name every process group and every track that appears,
  // including the per-tenant counter tracks fed by window updates (below).
  std::map<std::pair<int, std::int64_t>, Track> tracks;
  std::set<int> pids;
  const auto note_track = [&tracks, &pids](const Track& t) {
    pids.insert(pid_of(t.kind));
    tracks.try_emplace(std::make_pair(pid_of(t.kind), tid_of(t)), t);
  };
  for (const TraceEvent* e : evs) {
    note_track(e->track);
    if (e->kind == EventKind::kWindowUpdate && e->tenant.valid()) {
      note_track(Track::tenant(e->tenant));
    }
  }
  bool first = true;
  const auto next = [&out, &first]() -> ExportBuffer& {
    if (!first) out.lit(",\n");
    first = false;
    return out;
  };
  for (const int pid : pids) {
    const TrackKind kind = pid == 1   ? TrackKind::kHost
                           : pid == 2 ? TrackKind::kSwitch
                           : pid == 3 ? TrackKind::kTenant
                           : pid == 4 ? TrackKind::kLink
                                      : TrackKind::kFabric;
    next().lit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ").dec(pid);
    out.lit(", \"args\": {\"name\": \"").lit(pid_name(kind)).lit("\"}}");
  }
  for (const auto& [key, track] : tracks) {
    next().lit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ").dec(key.first);
    out.lit(", \"tid\": ").dec(key.second).lit(", \"args\": {\"name\": \"");
    if (namer) {
      out.lit(json_escape(namer(track)));
    } else {
      put_track_name(out, track);  // generic labels need no escaping
    }
    out.lit("\"}}");
  }

  // Events.  Probe-chain events become tiny slices joined by flow arrows so
  // chrome://tracing / Perfetto draws each probe's causal path end to end;
  // everything else is an instant on its track.
  for (const TraceEvent* e : evs) {
    const TraceEvent& ev = *e;
    const double ts_us = static_cast<double>(ev.at.ns()) / 1e3;
    const int pid = pid_of(ev.track.kind);
    const std::int64_t tid = tid_of(ev.track);
    const bool chain = is_probe_chain(ev.kind) && ev.pair.valid();
    next().lit("{\"name\": \"").lit(to_string(ev.kind));
    out.lit(chain ? "\", \"ph\": \"X\", \"pid\": " : "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": ");
    out.dec(pid).lit(", \"tid\": ").dec(tid).lit(", \"ts\": ").f3(ts_us);
    out.lit(chain ? ", \"dur\": 0.2, \"args\": {" : ", \"args\": {");
    put_args(out, ev);
    out.lit("}}");
    if (chain) {
      const bool last = ev.kind == EventKind::kWindowUpdate;
      const char* flow_ph = ev.kind == EventKind::kProbeSent ? "s" : last ? "f" : "t";
      next().lit("{\"name\": \"probe\", \"cat\": \"probe\", \"ph\": \"").lit(flow_ph);
      out.lit("\", \"id\": \"").hex(flow_id(ev)).lit("\", \"pid\": ").dec(pid);
      out.lit(", \"tid\": ").dec(tid).lit(", \"ts\": ").f3(ts_us);
      out.lit(last ? ", \"bp\": \"e\"}" : "}");
    }
    // Tenant-track counter: the admitted window over time, one counter series
    // per tenant ("one track per tenant" in the exported view).
    if (ev.kind == EventKind::kWindowUpdate && ev.tenant.valid()) {
      next().lit("{\"name\": \"window_bytes\", \"ph\": \"C\", \"pid\": ");
      out.dec(pid_of(TrackKind::kTenant)).lit(", \"tid\": ").dec(tid_of(Track::tenant(ev.tenant)));
      out.lit(", \"ts\": ").f3(ts_us).lit(", \"args\": {\"window\": ").g12(ev.b).lit("}}");
    }
  }
  if (profiler != nullptr) {
    out.flush();  // the profiler appends its counter tracks to the stream itself
    profiler->write_chrome_counter_events(os, first, shard_count);
  }
  out.lit("\n]}\n");
  out.flush();
}

}  // namespace ufab::obs
