// Traffic sources used by the evaluation: on/off demand (Fig. 16), Poisson
// flow arrivals with empirical sizes (Fig. 17), and FCT recording.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/harness/fabric.hpp"
#include "src/stats/percentile.hpp"
#include "src/workload/distributions.hpp"

namespace ufab::workload {

/// Demand that flips between a fixed paced rate ("underload") and unlimited
/// backlog every `period` — the 90-to-1 dynamic workload of §5.5.
class OnOffSource {
 public:
  struct Config {
    TimeNs period = TimeNs{4'000'000};      ///< Phase length (4 ms).
    Bandwidth limited_rate = Bandwidth::mbps(500);
    std::int64_t chunk_bytes = 16'000;      ///< Message size while paced.
    TimeNs start = TimeNs::zero();
    TimeNs stop = TimeNs::max();
    bool start_unlimited = false;
  };

  OnOffSource(harness::Fabric& fab, VmPairId pair, Config cfg);

 private:
  void toggle_initial();
  void toggle_scheduled();
  void tick_limited();
  void top_up_unlimited();

  harness::Fabric& fab_;
  VmPairId pair_;
  Config cfg_;
  bool unlimited_;
};

/// Records flow completion times against expected hose-model FCTs.
///
/// Storage is slot-per-flow: registration (at setup time) appends a slot; a
/// delivery writes only its own flow's slot, so deliveries landing on
/// different shard threads never touch shared state.  Aggregates are rebuilt on demand in registration order —
/// independent of delivery order, hence identical for every shard count and
/// execution mode.
class FlowRecorder {
 public:
  /// Registers a flow started at `started`; `expected_sec` is
  /// size / min-guarantee.  Not safe concurrently with deliveries.
  void on_start(std::uint64_t tag, TimeNs started, double expected_sec,
                std::int64_t size_bytes);
  /// Feed from a Fabric delivery listener.  Safe to call concurrently for
  /// *different* flows (disjoint slots).
  void on_delivery(std::uint64_t tag, TimeNs delivered);

  [[nodiscard]] const PercentileTracker& fct_us() const;
  [[nodiscard]] const PercentileTracker& slowdown() const;
  /// Slowdown restricted to flows in [min_bytes, max_bytes).
  [[nodiscard]] PercentileTracker slowdown_for_sizes(std::int64_t min_bytes,
                                                     std::int64_t max_bytes) const;
  [[nodiscard]] std::size_t started() const { return flows_.size(); }
  [[nodiscard]] std::size_t completed() const;

  /// Guarantee-violation volume percentage (Fig. 17a): per flow, the byte
  /// share that failed to arrive at the hose-guarantee rate is
  /// size * max(0, 1 - 1/slowdown); the metric is that sum over total bytes.
  [[nodiscard]] double violation_volume_pct() const;

 private:
  struct Flow {
    TimeNs started;
    double expected_sec;
    std::int64_t size;
    TimeNs delivered{-1};  ///< -1: still in flight.
  };
  void refresh() const;

  std::vector<Flow> flows_;                             // registration order
  std::unordered_map<std::uint64_t, std::size_t> slot_of_tag_;
  mutable PercentileTracker fct_us_;
  mutable PercentileTracker slowdown_;
  mutable std::size_t cached_started_ = 0;
  mutable std::size_t cached_done_ = 0;
};

/// Poisson flow arrivals over a set of VM pairs, sizes from an empirical
/// distribution, targeting an average host-link load (§5.5's workload).  The
/// whole arrival schedule over [start, stop) is drawn at construction.
class PoissonFlowGenerator {
 public:
  struct Config {
    double target_load = 0.5;      ///< Fraction of host link bandwidth.
    TimeNs start = TimeNs::zero();
    TimeNs stop = TimeNs::max();   ///< Must be set: the constructor rejects max().
    std::uint64_t tag_base = 1ull << 40;  ///< user_tag namespace.
  };

  PoissonFlowGenerator(harness::Fabric& fab, std::vector<VmPairId> pairs,
                       EmpiricalSizeDist dist, Config cfg, Rng rng);

  [[nodiscard]] FlowRecorder& recorder() { return recorder_; }

 private:
  harness::Fabric& fab_;
  std::vector<VmPairId> pairs_;
  EmpiricalSizeDist dist_;
  Config cfg_;
  Rng rng_;
  double mean_gap_sec_;
  std::uint64_t next_tag_;
  FlowRecorder recorder_;
};

}  // namespace ufab::workload
