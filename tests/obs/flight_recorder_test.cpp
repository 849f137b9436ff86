// FlightRecorder: ring semantics, causal slices, and export validity; both
// exports byte for byte against the printf writers they replaced.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/shard_context.hpp"
#include "src/harness/fabric.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"
#include "tests/temp_path.hpp"

namespace ufab::obs {
namespace {

TraceEvent probe_event(std::uint64_t seq, EventKind kind = EventKind::kProbeSent) {
  TraceEvent ev;
  ev.at = TimeNs{static_cast<std::int64_t>(seq) * 1'000};
  ev.kind = kind;
  ev.track = Track::host(HostId{0});
  ev.pair = VmPairId{VmId{1}, VmId{2}};
  ev.seq = seq;
  return ev;
}

TEST(FlightRecorder, RingWraparoundKeepsNewestInOrder) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) rec.record(probe_event(i));
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.recorded_total(), 20u);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 8u);
  // The retained window is exactly the last 8 events, oldest first — the
  // wraparound is deterministic, not approximate.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].seq, 12u + i);
    if (i > 0) {
      EXPECT_GE(evs[i].at, evs[i - 1].at);
    }
  }
}

TEST(FlightRecorder, BelowCapacityReturnsAllInOrder) {
  FlightRecorder rec(16);
  for (std::uint64_t i = 0; i < 5; ++i) rec.record(probe_event(i));
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(evs[i].seq, i);
}

TEST(FlightRecorder, EventsForPairSlicesCausally) {
  FlightRecorder rec(64);
  const VmPairId mine{VmId{1}, VmId{2}};
  const VmPairId other{VmId{3}, VmId{4}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceEvent ev = probe_event(i);
    ev.pair = (i % 2 == 0) ? mine : other;
    rec.record(ev);
  }
  const auto slice = rec.events_for_pair(mine);
  ASSERT_EQ(slice.size(), 5u);
  for (const auto& ev : slice) EXPECT_EQ(ev.pair.key(), mine.key());
}

TEST(FlightRecorder, ClearResetsRetainedButNotTotal) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 3; ++i) rec.record(probe_event(i));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.events().empty());
  rec.record(probe_event(42));
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].seq, 42u);
}

TEST(FlightRecorder, ChromeTraceExportIsWellFormed) {
  FlightRecorder rec(64);
  // A full probe chain plus an instant event, so the export exercises the
  // "X"+flow path, the "i" path, and the tenant counter series.
  for (const EventKind k : {EventKind::kProbeSent, EventKind::kProbeIntStamp,
                            EventKind::kProbeEchoed, EventKind::kWindowUpdate}) {
    TraceEvent ev = probe_event(7, k);
    ev.tenant = TenantId{0};
    rec.record(ev);
  }
  TraceEvent drop = probe_event(8, EventKind::kDrop);
  drop.track = Track::link(LinkId{2});
  rec.record(drop);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);

  // Validate against the reference checker when python3 is available (it is
  // in CI); the checker exits non-zero on any schema violation.
  if (std::system("python3 -c '' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string path = temp_path("flight_recorder_test.trace.json");
  {
    std::ofstream f(path, std::ios::trunc);
    f << trace;
  }
  const std::string cmd =
      "python3 " SOURCE_DIR "/scripts/render_trace.py --quiet " + path + " >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "render_trace.py rejected the export";
  std::remove(path.c_str());
}

TEST(FlightRecorderSustained, MultiWrapEvictsOldestKeepsNewestInOrder) {
  // A soak-length stream pushes the ring through many full revolutions; the
  // retained window must always be exactly the newest `capacity` events.
  constexpr std::size_t kCap = 32;
  constexpr std::uint64_t kTotal = 5 * kCap + 7;  // > 5 full wraps, misaligned
  FlightRecorder rec(kCap);
  for (std::uint64_t i = 0; i < kTotal; ++i) rec.record(probe_event(i));
  EXPECT_EQ(rec.size(), kCap);
  EXPECT_EQ(rec.recorded_total(), kTotal);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(evs[i].seq, kTotal - kCap + i);
    if (i > 0) {
      EXPECT_GE(evs[i].at, evs[i - 1].at);
    }
  }
}

TEST(FlightRecorderSustained, CausalSliceStaysCorrectAcrossWraps) {
  // Interleave two pairs while wrapping four times: the per-pair slice must
  // contain only the surviving events of that pair, still in causal order.
  constexpr std::size_t kCap = 16;
  constexpr std::uint64_t kTotal = 4 * kCap;
  const VmPairId mine{VmId{1}, VmId{2}};
  const VmPairId other{VmId{3}, VmId{4}};
  FlightRecorder rec(kCap);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    TraceEvent ev = probe_event(i);
    ev.pair = (i % 3 == 0) ? mine : other;
    rec.record(ev);
  }
  const auto slice = rec.events_for_pair(mine);
  // The retained ring is seqs [kTotal-kCap, kTotal); mine are the multiples
  // of 3 within it.
  std::size_t expect = 0;
  for (std::uint64_t s = kTotal - kCap; s < kTotal; ++s) {
    if (s % 3 == 0) ++expect;
  }
  ASSERT_EQ(slice.size(), expect);
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice[i].pair.key(), mine.key());
    EXPECT_EQ(slice[i].seq % 3, 0u);
    EXPECT_GE(slice[i].seq, kTotal - kCap);
    if (i > 0) {
      EXPECT_GT(slice[i].at, slice[i - 1].at);
    }
  }
}

TEST(FlightRecorderSustained, ChromeTraceStaysValidAfterThreeWraps) {
  // Export validity must not depend on the ring being in its first
  // revolution: drive >= 3 full wraps of mixed event kinds (complete probe
  // chains, drops on a link track, window updates with a tenant) and check
  // the export still renders.
  constexpr std::size_t kCap = 16;
  FlightRecorder rec(kCap);
  std::uint64_t seq = 0;
  for (int round = 0; round < 16; ++round) {  // 16 * 4 events = 4 wraps of 16
    for (const EventKind k : {EventKind::kProbeSent, EventKind::kProbeIntStamp,
                              EventKind::kProbeEchoed, EventKind::kWindowUpdate}) {
      TraceEvent ev = probe_event(seq++, k);
      ev.tenant = TenantId{0};
      if (k == EventKind::kWindowUpdate) ev.track = Track::link(LinkId{1});
      rec.record(ev);
    }
  }
  ASSERT_GE(rec.recorded_total(), 3 * kCap);
  EXPECT_EQ(rec.size(), kCap);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  // Evicted events must not leak into the export: the oldest surviving seq
  // is recorded_total - capacity.
  const std::uint64_t oldest = rec.recorded_total() - kCap;
  for (const auto& ev : rec.events()) EXPECT_GE(ev.seq, oldest);

  if (std::system("python3 -c '' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string path = temp_path("flight_recorder_wrap.trace.json");
  {
    std::ofstream f(path, std::ios::trunc);
    f << trace;
  }
  const std::string cmd =
      "python3 " SOURCE_DIR "/scripts/render_trace.py --quiet " + path + " >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "render_trace.py rejected the post-wrap export";
  std::remove(path.c_str());
}

/// Every `"seq": N` an export lists, in order.
std::vector<std::uint64_t> seqs_in(const std::string& text) {
  const std::string key = "\"seq\": ";
  std::vector<std::uint64_t> out;
  for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at + 1)) {
    out.push_back(std::stoull(text.substr(at + key.size())));
  }
  return out;
}

TEST(FlightRecorder, ExportsMergeShardRingsInEventsOrder) {
  // Rings 0 and 1 hold interleaved and equal timestamps, recorded in an
  // order that is neither time nor ring order.  events() and both exports
  // list them by timestamp, ties in (shard, ring position) order.
  FlightRecorder rec(16);
  const auto record_on = [&rec](int shard, std::uint64_t seq, std::int64_t at_ns) {
    ufab::tls_shard_index = shard;
    TraceEvent ev = probe_event(seq, EventKind::kEcnMark);
    ev.at = TimeNs{at_ns};
    rec.record(ev);
  };
  record_on(1, 11, 2'000);
  record_on(1, 12, 3'000);
  record_on(0, 1, 1'000);
  record_on(0, 2, 3'000);
  record_on(1, 13, 4'000);
  record_on(0, 3, 3'000);
  record_on(1, 14, 5'000);
  record_on(0, 4, 5'000);
  ufab::tls_shard_index = 0;

  const std::vector<std::uint64_t> expected{1, 11, 2, 3, 12, 13, 4, 14};
  std::vector<std::uint64_t> listed;
  for (const TraceEvent& ev : rec.events()) listed.push_back(ev.seq);
  EXPECT_EQ(listed, expected);
  std::ostringstream json;
  rec.write_json(json);
  EXPECT_EQ(seqs_in(json.str()), expected);
  std::ostringstream trace;
  rec.write_chrome_trace(trace);
  EXPECT_EQ(seqs_in(trace.str()), expected);
}

TEST(FlightRecorder, RawJsonExportListsEveryEvent) {
  FlightRecorder rec(8);
  rec.record(probe_event(1));
  rec.record(probe_event(2, EventKind::kWindowUpdate));
  std::ostringstream os;
  rec.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("probe_sent"), std::string::npos);
  EXPECT_NE(json.find("window_update"), std::string::npos);
}

// --- Reference: the printf writers the buffered exports replaced, kept as
// they were (reading events() instead of the recorder's private pointer
// view, which lists the same events in the same order).
namespace ref {

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

void write_json(const FlightRecorder& rec, std::ostream& os) {
  const std::vector<TraceEvent> evs = rec.events();
  os << "{\n  \"recorded_total\": " << rec.recorded_total() << ",\n  \"events\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& ev = evs[i];
    std::snprintf(buf, sizeof(buf), "    {\"t_ns\": %lld, \"kind\": \"%s\", \"track\": \"%s\", ",
                  static_cast<long long>(ev.at.ns()), to_string(ev.kind),
                  default_track_name(ev.track).c_str());
    os << buf << event_args_json(ev) << (i + 1 < evs.size() ? "},\n" : "}\n");
  }
  os << "  ]\n}\n";
}

void write_chrome_trace(const FlightRecorder& rec, std::ostream& os,
                        const TrackNamer& namer = {}, const Profiler* profiler = nullptr,
                        int shard_count = 0) {
  const std::vector<TraceEvent> evs = rec.events();
  os << "{\"ufab_schema\": 2, \"traceEvents\": [\n";
  std::map<std::pair<int, std::int64_t>, Track> tracks;
  std::set<int> pids;
  for (const TraceEvent& ev : evs) {
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
  char head[256];
  for (const TraceEvent& ev : evs) {
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

}  // namespace ref

template <typename F>
std::string written(F&& write) {
  std::ostringstream os;
  write(os);
  return os.str();
}

/// Every EventKind, sub-code, id validity, id range, seq, value and stamp edge
/// the exports format, drawn in a seeded order onto two shard rings that each
/// wrap, with stamps out of time order so the merge interleaves the rings.
FlightRecorder scripted_recorder() {
  FlightRecorder rec(300);
  std::mt19937_64 rng(20261020);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values{0.0,    -0.0,     std::numeric_limits<double>::denorm_min(),
                                   1e12 - 1, 1e12,   -3.25,
                                   DBL_MAX, nan,      -nan,
                                   inf,    -inf,     0.1,
                                   123456789012.5, 1e-5, -2.5e300};
  const std::vector<std::int64_t> stamps{0,         1,
                                         999,       1000,
                                         (std::int64_t{1} << 53) + 1,
                                         std::numeric_limits<std::int64_t>::max()};
  const std::vector<std::uint64_t> seqs{0, 1, std::numeric_limits<std::uint64_t>::max(),
                                        0x9e3779b97f4a7c15ULL};
  const std::vector<std::int32_t> ids{-1, -7, 0, 3, 1023, 99'999};
  const int kinds = static_cast<int>(EventKind::kCheckFailure) + 1;
  for (int i = 0; i < 1'200; ++i) {
    TraceEvent ev;
    ev.kind = static_cast<EventKind>(i % kinds);
    // Sub-codes 0..4 cover every WindowBound, DropReason and tamper code plus
    // one out of range for each; 255 is out of range for all of them.
    ev.detail = static_cast<std::uint8_t>(i % 7 == 6 ? 255 : (i / kinds) % 5);
    const auto id = [&rng, &ids] { return ids[rng() % ids.size()]; };
    switch (rng() % 5) {
      case 0:
        ev.track = Track::host(HostId{id()});
        break;
      case 1:
        ev.track = Track::switch_port(NodeId{id()}, id());
        break;
      case 2:
        ev.track = Track::tenant(TenantId{id()});
        break;
      case 3:
        ev.track = Track::link(LinkId{id()});
        break;
      default:
        ev.track = Track{};
        break;
    }
    if (rng() % 4 != 0) ev.pair = VmPairId{VmId{id()}, VmId{id()}};
    if (rng() % 3 != 0) ev.tenant = TenantId{id()};
    if (rng() % 3 != 0) ev.link = LinkId{id()};
    ev.seq = rng() % 2 == 0 ? seqs[rng() % seqs.size()] : rng();
    ev.a = rng() % 2 == 0 ? values[rng() % values.size()]
                          : std::ldexp(static_cast<double>(rng()), static_cast<int>(rng() % 80) - 70);
    ev.b = rng() % 2 == 0 ? values[rng() % values.size()]
                          : -static_cast<double>(rng() % 1'000'000) / 7.0;
    ev.at = TimeNs{rng() % 3 == 0 ? stamps[rng() % stamps.size()]
                                  : static_cast<std::int64_t>(rng() % 5'000'000'000)};
    ufab::tls_shard_index = static_cast<int>(rng() % 2);
    rec.record(ev);
  }
  ufab::tls_shard_index = 0;
  return rec;
}

TEST(FlightRecorder, ExportsMatchPrintfReferenceByteForByte) {
  const FlightRecorder rec = scripted_recorder();
  ASSERT_EQ(rec.size(), 600u);  // both rings full, both wrapped
  // A namer whose labels need escaping, and one label longer than the
  // export's buffer.
  const TrackNamer namer = [](const Track& t) {
    if (t.kind == TrackKind::kLink && t.id == 3) return std::string(40'000, 'x');
    return "track \"" + std::to_string(t.id) + "\"\\\t/" + std::to_string(t.sub) + "\n";
  };

  const std::string json = written([&](std::ostream& os) { rec.write_json(os); });
  EXPECT_EQ(json, written([&](std::ostream& os) { ref::write_json(rec, os); }));
  const std::string plain = written([&](std::ostream& os) { rec.write_chrome_trace(os); });
  EXPECT_EQ(plain, written([&](std::ostream& os) { ref::write_chrome_trace(rec, os); }));
  const std::string named =
      written([&](std::ostream& os) { rec.write_chrome_trace(os, namer); });
  EXPECT_EQ(named, written([&](std::ostream& os) { ref::write_chrome_trace(rec, os, namer); }));
  // The script reached the edges it was written for.
  for (const char* text : {"\"detail\": \"?\"", "\"detail\": \"strip\"", "-nan", "-inf",
                           "1e+12", "999999999999", "4.94065645841e-324",
                           "9223372036854776.000", "9223372036854775807",
                           "\"seq\": 18446744073709551615"}) {
    EXPECT_TRUE(json.find(text) != std::string::npos || plain.find(text) != std::string::npos)
        << text;
  }
  EXPECT_GT(json.size(), 16'384u * 4);  // several buffer flushes

  const FlightRecorder empty(4);
  EXPECT_EQ(written([&](std::ostream& os) { empty.write_json(os); }),
            written([&](std::ostream& os) { ref::write_json(empty, os); }));
  EXPECT_EQ(written([&](std::ostream& os) { empty.write_chrome_trace(os); }),
            written([&](std::ostream& os) { ref::write_chrome_trace(empty, os); }));
}

TEST(FlightRecorder, ProfiledTraceMatchesPrintfReferenceByteForByte) {
  // Two 4 Gbps VFs on a 2-leaf / 2-spine fabric with 4 shards, observability
  // and the level-1 profiler on, as the profiler's own trace test builds it:
  // the profiler appends its counter tracks after the buffered fabric events.
  using namespace ufab::time_literals;
  using namespace ufab::unit_literals;
  harness::Fabric fab([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); }, 7);
  fab.configure_sharding(4);
  fab.enable_observability();
  ProfOptions prof;
  prof.level = 1;
  fab.sim().enable_profiling(prof);
  fab.instrument_cores({});
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const HostId host{static_cast<std::int32_t>(h)};
    fab.adopt_stack(host, std::make_unique<edge::EdgeAgent>(
                              fab.net(), fab.vms(), host, edge::EdgeConfig{},
                              transport::TransportOptions{}, fab.rng().fork(h)));
  }
  for (int i = 0; i < 2; ++i) {
    const TenantId t = fab.vms().add_tenant("VF-" + std::to_string(i + 1), 4_Gbps);
    fab.keep_backlogged(VmPairId{fab.vms().add_vm(t, HostId{i}), fab.vms().add_vm(t, HostId{2 + i})},
                        0_ms, 8_ms);
  }
  fab.sim().run_until(8_ms);

  Obs& obs = *fab.observability();
  const Profiler* profiler = fab.sim().profiler();
  const int shards = fab.sim().shard_count();
  const std::string trace = written([&](std::ostream& os) {
    obs.recorder().write_chrome_trace(os, obs.track_namer(), profiler, shards);
  });
  EXPECT_EQ(trace, written([&](std::ostream& os) {
              ref::write_chrome_trace(obs.recorder(), os, obs.track_namer(), profiler, shards);
            }));
  EXPECT_NE(trace.find("prof.queue_depth[s0]"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
}

}  // namespace
}  // namespace ufab::obs
