// FlightRecorder: ring semantics, causal slices, and export validity.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/shard_context.hpp"
#include "src/obs/flight_recorder.hpp"
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

}  // namespace
}  // namespace ufab::obs
