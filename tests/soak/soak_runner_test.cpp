// SoakRunner integration: the smoke-shaped soak must pass its own gates,
// reproduce its SLO CSV byte-for-byte from the seed, and hold the
// memory-bound evidence flat as the horizon grows — including one full
// simulated hour on the tiny fabric.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/faults/fault_plane.hpp"
#include "src/harness/fabric.hpp"
#include "src/soak/runner.hpp"
#include "src/topo/builders.hpp"
#include "tests/temp_path.hpp"

namespace ufab::soak {
namespace {

using namespace ufab::time_literals;

SoakOptions smoke_opts(std::uint64_t seed) {
  SoakOptions o;
  o.seed = seed;
  o.apply_smoke();
  o.observability = false;  // keep the test lean; the bench exercises obs
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(SoakRunner, SmokeRunPassesItsOwnGates) {
  SoakRunner runner(smoke_opts(5));
  const SoakReport r = runner.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_TRUE(r.slo_breaches.empty());
  EXPECT_GT(r.windows, 0);
  EXPECT_GT(r.episodes_total, 0);
  EXPECT_GT(r.fct_samples, 0u);
  EXPECT_GT(r.events, 0u);
  // Streaming stats only on the hot path: the exact tracker must stay empty.
  EXPECT_EQ(r.rtt_exact_samples, 0u);
  EXPECT_GT(r.rtt_stream_samples, 0u);
}

TEST(SoakRunner, SloCsvIsByteIdenticalForFixedSeed) {
  const std::string p1 = temp_path("soak_csv_a.csv");
  const std::string p2 = temp_path("soak_csv_b.csv");
  const std::string p3 = temp_path("soak_csv_c.csv");
  {
    SoakOptions o = smoke_opts(21);
    o.csv_path = p1;
    SoakRunner(o).run();
  }
  {
    SoakOptions o = smoke_opts(21);
    o.csv_path = p2;
    SoakRunner(o).run();
  }
  {
    SoakOptions o = smoke_opts(22);
    o.csv_path = p3;
    SoakRunner(o).run();
  }
  const std::string a = slurp(p1), b = slurp(p2), c = slurp(p3);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed must reproduce the CSV byte-for-byte";
  EXPECT_NE(a, c) << "a different seed must change the run";
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  std::remove(p3.c_str());
}

TEST(SoakRunner, MemoryEvidenceStaysFlatAsHorizonGrows) {
  SoakOptions shorter = smoke_opts(9);
  SoakOptions longer = smoke_opts(9);
  longer.duration = shorter.duration * 3;
  const SoakReport rs = SoakRunner(shorter).run();
  const SoakReport rl = SoakRunner(longer).run();
  ASSERT_GT(rl.windows, rs.windows);
  // Meters sit at their retention cap regardless of horizon.
  EXPECT_LE(rs.meter_buckets_retained_max, shorter.meter_retain_buckets);
  EXPECT_EQ(rl.meter_buckets_retained_max, rs.meter_buckets_retained_max);
  // No exact (store-everything) RTT samples in either run.
  EXPECT_EQ(rs.rtt_exact_samples, 0u);
  EXPECT_EQ(rl.rtt_exact_samples, 0u);
  // In-flight and pending peaks are workload-shaped, not horizon-shaped:
  // allow slack for episode variety but forbid linear growth.
  EXPECT_LT(rl.peak_packets_in_flight, 4 * rs.peak_packets_in_flight + 64);
  EXPECT_LT(rl.peak_pending_events, 4 * rs.peak_pending_events + 64);
}

TEST(SoakRunner, OneSimulatedHourCompletesWithBoundedMemory) {
  // The acceptance bar: a full simulated hour on a shrunken fabric (one host
  // per leaf, low rates, sparse episodes, coarse windows) finishes with zero
  // invariant violations and flat memory evidence, in seconds of wall clock.
  SoakOptions o;
  o.seed = 13;
  o.duration = 3'600_s;
  o.window = 10_s;
  o.hosts_per_leaf = 1;
  o.host_bw = Bandwidth::mbps(8);
  o.fabric_bw = Bandwidth::mbps(16);
  o.flows_per_sec = 4.0;
  o.flow_bytes_mean = 12'000;
  o.episodes.mean_gap = 30_s;
  o.episodes.min_cooldown = 5_s;
  o.observability = false;
  o.csv_path.clear();
  const SoakReport r = SoakRunner(o).run();
  EXPECT_GE(r.sim_seconds, 3'600.0);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.windows, 300);
  EXPECT_GT(r.episodes_total, 10);
  EXPECT_LE(r.meter_buckets_retained_max, o.meter_retain_buckets);
  EXPECT_EQ(r.rtt_exact_samples, 0u);
  EXPECT_LT(r.peak_packets_in_flight, o.audit.max_packets_in_flight);
  EXPECT_LT(r.peak_pending_events, o.audit.max_pending_events);
}

TEST(SoakRunner, DrainOutlastingTheGraceIsNotALeak) {
  // On this seed a traffic burst and a host hotspot both end at the 60 s
  // horizon; their backlog is still crossing the fabric when the 2 s grace
  // ends and is back in its pools within the next window.  Flagging it as
  // "pool packets never returned" would be a false leak.
  SoakOptions o;
  o.seed = 759628473536900146ULL;
  o.duration = 60_s;
  const SoakReport r = SoakRunner(o).run();
  for (const Violation& v : r.violations) ADD_FAILURE() << v.invariant << ": " << v.detail;
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.sim_seconds, 62.0);  // the drain went on past the grace
  EXPECT_LE(r.sim_seconds, 68.0);
}

TEST(SoakRunner, ForcedSequentialGaugeNamesTheReason) {
  // Satellite: the fault plane pinning a sharded engine to sequential epochs
  // must be visible in metrics, labeled with the reason, not silent.
  harness::Fabric fab([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); });
  fab.configure_sharding(2);
  fab.enable_observability();
  faults::FaultPlane plane(fab, 1);
  const auto snap = fab.metrics_snapshot();
  const auto* row = snap.find("sim.forced_sequential", {{"reason", "fault-plane"}});
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->value, 1.0);
  EXPECT_FALSE(fab.sim().sequential_reasons().empty());
}

}  // namespace
}  // namespace ufab::soak
