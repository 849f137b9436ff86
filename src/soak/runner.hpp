// Long-horizon soak runner: a stretched production fabric under rotating
// adversity, SLO-guarded and memory-bounded.
//
// The runner fuses the pieces a week-long run needs: a small leaf-spine
// fabric scaled down in bandwidth (so an hour of simulated production is
// minutes of wall clock), the uFAB scheme with O(1)-memory stats, backlogged
// guarantee-holding pairs plus a short-flow background workload, the episode
// scheduler compiled onto one FaultPlane, the windowed SLO tracker streaming
// per-window rows to CSV, and the invariant auditor checking conservation
// ledgers at every window edge.
//
// Everything derives from SoakOptions (env-overridable via UFAB_SOAK_*), and
// every random draw flows from the one seed — two runs with the same seed
// produce byte-identical SLO CSVs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/time.hpp"
#include "src/core/units.hpp"
#include "src/faults/fault_plane.hpp"
#include "src/soak/auditor.hpp"
#include "src/soak/episode.hpp"
#include "src/soak/slo.hpp"

namespace ufab::soak {

struct SoakOptions {
  std::uint64_t seed = 1;

  // --- horizon ---
  TimeNs duration = TimeNs{3'600'000'000'000};  ///< Simulated traffic time (1 h).
  TimeNs window = TimeNs{1'000'000'000};        ///< SLO accounting window.
  /// Post-traffic drain before the final audit.  A drain still moving packets
  /// at the grace goes on one window at a time, up to 4 x drain_grace.
  TimeNs drain_grace = TimeNs{2'000'000'000};

  // --- stretched fabric (low rates => long horizons stay cheap) ---
  int n_leaf = 2;
  int n_spine = 2;
  int hosts_per_leaf = 2;
  Bandwidth host_bw = Bandwidth::mbps(25);
  Bandwidth fabric_bw = Bandwidth::mbps(50);
  TimeNs prop_delay = TimeNs{150'000};
  std::int64_t queue_limit_bytes = 100'000;
  TimeNs token_update_period = TimeNs{10'000'000};  ///< 10 ms GP epochs.

  // --- workload ---
  double guarantee_frac = 0.30;        ///< Per-pair guarantee as share of host_bw.
  std::int64_t backlog_chunk = 262'144;
  double flows_per_sec = 30.0;         ///< Background short-flow arrivals.
  std::int64_t flow_bytes_mean = 20'000;

  // --- episodes / SLO / audit ---
  EpisodeOptions episodes;
  SloThresholds slo;
  AuditorLimits audit;
  TimeNs recovery_allowance = TimeNs{2'000'000'000};  ///< Dirty tail after an episode.
  int recovery_poll_max_rtts = 128;   ///< Re-registration deadline after a reset.

  // --- memory bounds ---
  TimeNs meter_bucket = TimeNs{50'000'000};  ///< Pair/tenant metering grain.
  std::size_t meter_retain_buckets = 64;     ///< Trailing buckets kept per meter.

  // --- output / plumbing ---
  std::string csv_path;       ///< Per-window SLO rows; empty = summaries only.
  bool observability = true;  ///< Metrics + flight recorder (datapath events off).
  int shards = 0;             ///< >0: configure sharding; 0: UFAB_SHARDS/serial.

  /// Reads UFAB_SOAK_SEED / UFAB_SOAK_DURATION_S / UFAB_SOAK_WINDOW_MS /
  /// UFAB_SOAK_CSV / UFAB_SOAK_SMOKE on top of the defaults.
  [[nodiscard]] static SoakOptions from_env();

  /// Shrinks the horizon to the CI smoke shape (~seconds of wall clock).
  void apply_smoke();
};

struct SoakReport {
  // SLO summary.
  int windows = 0;
  int clean_windows = 0;
  double violation_seconds = 0.0;
  double fct_p99_us_clean = 0.0;
  double wc_gap_mean = 0.0;
  double recovery_p99_rtts = 0.0;
  std::uint64_t fct_samples = 0;
  std::vector<std::string> slo_breaches;

  // Faults / episodes.
  faults::FaultCounters faults;
  int episodes_total = 0;
  int recoveries_measured = 0;

  // Invariants.
  std::size_t invariant_violations = 0;
  std::vector<Violation> violations;
  std::size_t peak_packets_in_flight = 0;
  std::size_t peak_pending_events = 0;

  // Memory-bound evidence: these stay flat as the horizon grows.
  std::size_t meter_buckets_retained_max = 0;
  std::uint64_t rtt_exact_samples = 0;  ///< Must be 0 (streaming stats only).
  std::uint64_t rtt_stream_samples = 0;

  // Engine.
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<std::string> forced_sequential;

  [[nodiscard]] bool ok() const {
    return invariant_violations == 0 && slo_breaches.empty();
  }
};

class SoakRunner {
 public:
  explicit SoakRunner(SoakOptions opts);
  ~SoakRunner();
  SoakRunner(const SoakRunner&) = delete;
  SoakRunner& operator=(const SoakRunner&) = delete;

  /// Builds the fabric, compiles the schedule, runs to completion. Call once.
  SoakReport run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ufab::soak
