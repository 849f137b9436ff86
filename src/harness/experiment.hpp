// Shared experiment machinery for the figure/table benches.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/harness/fabric.hpp"
#include "src/harness/schemes.hpp"
#include "src/stats/cdf.hpp"
#include "src/stats/timeseries.hpp"

namespace ufab::harness {

/// One scheme instantiated over a topology, with measurement helpers.
class Experiment {
 public:
  using TopoFn =
      std::function<std::unique_ptr<topo::Network>(sim::Simulator&, const topo::FabricOptions&)>;

  Experiment(Scheme scheme, const TopoFn& topo_fn, topo::FabricOptions base_opts = {},
             SchemeOptions scheme_opts = {}, std::uint64_t seed = 1);

  [[nodiscard]] Fabric& fab() { return *fab_; }
  [[nodiscard]] Scheme scheme() const { return scheme_; }

  /// Enables the fabric's observability plane (see Fabric). Passive — bench
  /// output and packet schedules are identical with or without it.
  obs::Obs& enable_observability(obs::ObsOptions opts = {}) {
    return fab_->enable_observability(std::move(opts));
  }
  /// Structured values of every registered metric (requires observability).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() { return fab_->metrics_snapshot(); }

  /// Average delivered rate of a pair / tenant over [from, to).
  double pair_rate_gbps(VmPairId pair, TimeNs from, TimeNs to);
  double tenant_rate_gbps(TenantId tenant, TimeNs from, TimeNs to);

  /// All data-packet RTT samples across every host stack.
  [[nodiscard]] PercentileTracker aggregate_rtt_us() const;

  /// Worst queue observed across all fabric links.
  [[nodiscard]] std::int64_t max_queue_bytes() const;
  [[nodiscard]] std::int64_t total_drops() const;

 private:
  Scheme scheme_;
  SchemeOptions scheme_opts_;
  std::unique_ptr<Fabric> fab_;
};

/// A minimum-bandwidth expectation over an interval (for dissatisfaction).
struct GuaranteeSpec {
  VmPairId pair;
  double min_bps;
  TimeNs from;
  TimeNs to;
};

/// Bandwidth-dissatisfaction ratio (§5.2, Fig 11d/17a): total guarantee
/// shortfall over total delivered volume, computed per metering bucket.
double dissatisfaction_ratio(Fabric& fab, const std::vector<GuaranteeSpec>& specs, TimeNs until);

/// Per-bucket dissatisfaction percentage series (Fig 11d).
TimeSeries dissatisfaction_series(Fabric& fab, const std::vector<GuaranteeSpec>& specs,
                                  TimeNs until);

/// Time for a pair's delivered rate to settle into [lo, hi] Gbps after
/// `from`, holding for `hold`; TimeNs::max() if it never does.
TimeNs rate_settle_time(Fabric& fab, VmPairId pair, TimeNs from, TimeNs until, double lo_gbps,
                        double hi_gbps, TimeNs hold);

/// Writes machine-readable observability artifacts next to a bench's printed
/// output: `<bench>[.<variant>].metrics.json` / `.metrics.csv`, plus
/// `.trace.json` (Chrome trace) when the flight recorder holds events.  Files
/// land in $UFAB_METRICS_DIR (default: bench_artifacts/, created on demand).
/// Notices go to stderr so bench stdout stays byte-identical to runs without
/// observability.
/// No-op when the fabric has no enabled observability plane.
void write_bench_artifacts(Fabric& fab, const std::string& bench,
                           const std::string& variant = "");

/// ObsOptions for benches, derived from the environment: UFAB_OBS=0 turns the
/// plane off entirely, UFAB_OBS_DATAPATH=0 drops per-packet wire events while
/// keeping control-plane history.  Defaults to fully enabled — observability
/// is passive, so bench stdout is identical either way.
[[nodiscard]] obs::ObsOptions obs_options_from_env();

/// Engine settings from the environment, applied before any scheme or
/// workload event exists.  UFAB_SHARDS=<n> splits the engine into n shards
/// (the schedule is the same for every shard count) unless `shards` > 0
/// sets the count explicitly; UFAB_SHARD_EXEC=seq|threads pins the
/// execution strategy (default auto).  UFAB_PROF=<level> attaches the
/// engine self-profiling plane (1 = loop attribution, 2 = + per-call
/// scopes); it is passive, so the schedule and every simulation result are
/// unchanged (tests/obs/profiler_test.cpp).
void configure_engine_from_env(Fabric& fab, int shards = 0);

// --- printing helpers shared by benches ---
void print_header(const std::string& title);
void print_rate_series(Fabric& fab, const std::vector<std::pair<std::string, VmPairId>>& pairs,
                       TimeNs from, TimeNs to, TimeNs step);
void print_cdf_rows(const std::string& label, const PercentileTracker& tracker,
                    const std::string& unit);

}  // namespace ufab::harness
