// Engine self-profiling plane: passivity (profiled == unprofiled, event for
// event, serial and sharded), dispatch attribution completeness, profile
// export sanity, thread-local detailed scopes under ParallelSweep, prof.*
// metric export, and schema-2 Chrome-trace counter tracks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/fabric.hpp"
#include "src/harness/parallel_sweep.hpp"
#include "src/obs/profiler.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"
#include "tests/temp_path.hpp"

namespace ufab {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

constexpr TimeNs kRun = 8_ms;

/// Two 4 Gbps VFs on a 2-leaf / 2-spine fabric — the same world the obs
/// passivity test uses, so the two planes are held to the same standard.
struct World {
  std::unique_ptr<harness::Fabric> fab;
  std::vector<VmPairId> pairs;

  explicit World(int prof_level, int shards = 0, std::uint64_t seed = 7,
                 bool with_obs = false) {
    fab = std::make_unique<harness::Fabric>(
        [](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); }, seed);
    if (shards > 0) fab->configure_sharding(shards);
    if (with_obs) fab->enable_observability();
    if (prof_level > 0) {
      obs::ProfOptions opts;
      opts.level = prof_level;
      fab->sim().enable_profiling(opts);
    }
    fab->instrument_cores({});
    for (std::size_t h = 0; h < fab->net().host_count(); ++h) {
      const HostId host{static_cast<std::int32_t>(h)};
      fab->adopt_stack(host, std::make_unique<edge::EdgeAgent>(
                                 fab->net(), fab->vms(), host, edge::EdgeConfig{},
                                 transport::TransportOptions{}, fab->rng().fork(h)));
    }
    fab->install_pair_metering(1_ms);
    for (int i = 0; i < 2; ++i) {
      const TenantId t = fab->vms().add_tenant("VF-" + std::to_string(i + 1), 4_Gbps);
      pairs.push_back(
          VmPairId{fab->vms().add_vm(t, HostId{i}), fab->vms().add_vm(t, HostId{2 + i})});
      fab->keep_backlogged(pairs.back(), 0_ms, kRun);
    }
  }

  struct Signature {
    std::uint64_t events = 0;
    std::vector<std::int64_t> pair_bytes;
    std::int64_t drops = 0;
    std::int64_t max_queue = 0;

    bool operator==(const Signature&) const = default;
  };

  Signature run() {
    fab->sim().run_until(kRun);
    Signature s;
    s.events = fab->sim().events_processed();
    for (const VmPairId p : pairs) {
      RateMeter* m = fab->pair_meter(p);
      s.pair_bytes.push_back(m != nullptr ? m->total_bytes() : -1);
    }
    for (const sim::Link* l : fab->net().links()) {
      s.drops += l->drops() + l->fault_drops();
      s.max_queue = std::max(s.max_queue, l->max_queue_bytes());
    }
    return s;
  }

  /// Sum of both dispatch-category call counts across all shard slices.
  [[nodiscard]] std::uint64_t dispatch_count() const {
    const obs::Profiler* p = fab->sim().profiler();
    std::uint64_t n = 0;
    for (int s = 0; s < std::max(1, fab->sim().shard_count()); ++s) {
      const obs::ProfSlice& sl = p->slice(s);
      n += sl.count[static_cast<std::size_t>(obs::ProfCat::kDispatchDeliver)] +
           sl.count[static_cast<std::size_t>(obs::ProfCat::kDispatchClosure)];
    }
    return n;
  }
};

bool python3_available() { return std::system("python3 -c '' >/dev/null 2>&1") == 0; }

TEST(ProfilerPassivity, SerialProfiledRunIsBitIdentical) {
  // The acceptance property: attributing every nanosecond of engine time must
  // not perturb the simulation by a single event, byte, or drop.
  World plain(/*prof_level=*/0);
  World profiled(/*prof_level=*/2);
  const auto a = plain.run();
  const auto b = profiled.run();
  ASSERT_NE(profiled.fab->sim().profiler(), nullptr);
  EXPECT_GT(profiled.dispatch_count(), 0u);
  EXPECT_EQ(a, b);
}

TEST(ProfilerPassivity, ShardedProfiledRunIsBitIdentical) {
  // Same property with the 4-shard engine: barrier accounting, mailbox
  // injection timing, and per-shard queue sampling must all stay passive —
  // and must also match the serial unprofiled run (the engine's existing
  // serial == sharded guarantee must survive profiling).
  World serial(/*prof_level=*/0);
  World plain(/*prof_level=*/0, /*shards=*/4);
  World profiled(/*prof_level=*/2, /*shards=*/4);
  const auto s = serial.run();
  const auto a = plain.run();
  const auto b = profiled.run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(s.pair_bytes, b.pair_bytes);
  EXPECT_EQ(s.drops, b.drops);
  EXPECT_EQ(s.max_queue, b.max_queue);
}

TEST(Profiler, DispatchCountsCoverEveryProcessedEvent) {
  // Loop-level attribution is complete: every event pops through exactly one
  // dispatch category, serial and sharded.
  World serial(/*prof_level=*/1);
  const auto a = serial.run();
  EXPECT_EQ(serial.dispatch_count(), a.events);

  World sharded(/*prof_level=*/1, /*shards=*/4);
  const auto b = sharded.run();
  EXPECT_EQ(sharded.dispatch_count(), b.events);
}

TEST(Profiler, DetailedScopesRequireLevelTwo) {
  World level1(/*prof_level=*/1);
  level1.run();
  const auto& s1 = level1.fab->sim().profiler()->slice(0);
  EXPECT_EQ(s1.count[static_cast<std::size_t>(obs::ProfCat::kWfq)], 0u);

  World level2(/*prof_level=*/2);
  level2.run();
  const auto& s2 = level2.fab->sim().profiler()->slice(0);
  EXPECT_GT(s2.count[static_cast<std::size_t>(obs::ProfCat::kWfq)], 0u);
  EXPECT_GT(s2.count[static_cast<std::size_t>(obs::ProfCat::kTelemetry)], 0u);
}

TEST(Profiler, DerivedSummaryAndProfileJsonAreSane) {
  World w(/*prof_level=*/1, /*shards=*/4);
  w.run();
  const obs::Profiler* p = w.fab->sim().profiler();
  const auto d = p->derived(w.fab->sim().shard_count());
  EXPECT_GE(d.stall_fraction, 0.0);
  EXPECT_LE(d.stall_fraction, 1.0);
  EXPECT_GE(d.shard_imbalance, 1.0);
  EXPECT_GT(d.busy_ns_total, 0.0);
  EXPECT_GT(p->epochs(), 0u);
  // Queue sampling ran on the sim-time cadence: 8 ms at 100 us per sample.
  EXPECT_GT(p->samples_taken(0), 10u);

  const std::string json = w.fab->sim().profile_json();
  EXPECT_NE(json.find("\"schema\": \"ufab-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_imbalance\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch_deliver\""), std::string::npos);

  if (!python3_available()) GTEST_SKIP() << "python3 not available";
  const std::string path = temp_path("profiler_test.profile.json");
  {
    std::ofstream f(path, std::ios::trunc);
    f << json;
  }
  // Valid JSON, and the report renderer accepts it in both modes.
  EXPECT_EQ(std::system(("python3 -c 'import json,sys; json.load(open(sys.argv[1]))' " + path)
                            .c_str()),
            0);
  EXPECT_EQ(std::system(("python3 " SOURCE_DIR "/scripts/profile_report.py " + path +
                         " >/dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(std::system(("python3 " SOURCE_DIR "/scripts/profile_report.py --json " + path +
                         " >/dev/null")
                            .c_str()),
            0);
  std::remove(path.c_str());
}

TEST(Profiler, ParallelSweepKeepsPerVariantSlicesIsolated) {
  // Four profiled variants across three workers: each variant's detailed
  // scopes land in its own simulator's profiler (tls_prof_slice is scoped to
  // the running pass), and the sweep's own utilization stats cover exactly
  // the variants that ran.
  harness::ParallelSweep sweep(3);
  struct Row {
    std::uint64_t events = 0;
    std::uint64_t dispatch = 0;
    std::uint64_t wfq = 0;
  };
  const auto rows = sweep.map<Row>(4, [](int i) {
    World w(/*prof_level=*/2, /*shards=*/0, /*seed=*/100 + static_cast<std::uint64_t>(i));
    const auto sig = w.run();
    const auto& sl = w.fab->sim().profiler()->slice(0);
    return Row{sig.events, w.dispatch_count(),
               sl.count[static_cast<std::size_t>(obs::ProfCat::kWfq)]};
  });
  ASSERT_EQ(rows.size(), 4u);
  for (const Row& r : rows) {
    EXPECT_GT(r.events, 0u);
    EXPECT_EQ(r.dispatch, r.events);  // no cross-variant leakage
    EXPECT_GT(r.wfq, 0u);
  }
  int total_variants = 0;
  for (const auto& ws : sweep.worker_stats()) {
    total_variants += ws.variants;
    EXPECT_GE(ws.wall_ns, ws.busy_ns);
  }
  EXPECT_EQ(total_variants, 4);
}

TEST(Profiler, MetricsSnapshotCarriesProfGauges) {
  World w(/*prof_level=*/2, /*shards=*/4, /*seed=*/7, /*with_obs=*/true);
  w.run();
  const auto snap = w.fab->metrics_snapshot();
  ASSERT_NE(snap.find("prof.level"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("prof.level")->value, 2.0);
  ASSERT_NE(snap.find("prof.stall_fraction"), nullptr);
  ASSERT_NE(snap.find("prof.shard_imbalance"), nullptr);
  EXPECT_GT(snap.find("prof.busy_us_total")->value, 0.0);
  ASSERT_NE(snap.find("prof.epochs"), nullptr);
  const obs::Labels shard0{{"shard", "0"}};
  ASSERT_NE(snap.find("prof.busy_us", shard0), nullptr);
  const obs::Labels wfq0{{"shard", "0"}, {"scope", "wfq"}};
  ASSERT_NE(snap.find("prof.scope_us", wfq0), nullptr);
  EXPECT_GT(snap.find("prof.scope_count", wfq0)->value, 0.0);
}

TEST(Profiler, ChromeTraceGainsSchemaTwoCounterTracks) {
  World w(/*prof_level=*/1, /*shards=*/4, /*seed=*/7, /*with_obs=*/true);
  w.run();
  const std::string path = temp_path("profiler_test.trace.json");
  w.fab->write_trace_json(path);

  std::ifstream f(path);
  const std::string trace((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"ufab_schema\": 2"), std::string::npos);
  EXPECT_NE(trace.find("prof.queue_depth[s0]"), std::string::npos);
  EXPECT_NE(trace.find("\"engine profiler\""), std::string::npos);

  if (!python3_available()) GTEST_SKIP() << "python3 not available";
  const std::string cmd =
      "python3 " SOURCE_DIR "/scripts/render_trace.py --quiet " + path + " >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "render_trace.py rejected the profiled export";
  std::remove(path.c_str());
}

TEST(Profiler, RenderTraceRejectsMixedSchemaVersions) {
  // A profiler counter smuggled into a schema-1 trace (no ufab_schema key)
  // must be rejected, not silently rendered.
  if (!python3_available()) GTEST_SKIP() << "python3 not available";
  const std::string path = temp_path("profiler_mixed_schema.trace.json");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"traceEvents\": [\n"
         "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 6, "
         "\"args\": {\"name\": \"engine profiler\"}},\n"
         "{\"ph\": \"C\", \"name\": \"prof.queue_depth[s0]\", \"pid\": 6, "
         "\"tid\": 0, \"ts\": 1.0, \"args\": {\"ring\": 3}}\n"
         "]}\n";
  }
  const std::string cmd = "python3 " SOURCE_DIR "/scripts/render_trace.py --quiet " + path +
                          " >/dev/null 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0) << "mixed-schema trace was accepted";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ufab
