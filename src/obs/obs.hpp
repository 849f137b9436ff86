// Observability context: one MetricRegistry + one FlightRecorder per fabric.
//
// Instrumented objects hold a raw `Obs*` (null = disabled) and record only
// after a null check, so the disabled cost is a single pointer compare on
// cold paths.  Observability is strictly passive: it never schedules
// simulator events, never consumes experiment randomness, and never mutates
// instrumented state — an enabled run is packet-for-packet identical to a
// disabled one (tests/obs asserts this).
#pragma once

#include <memory>
#include <string>

#include "src/obs/flight_recorder.hpp"
#include "src/obs/metrics.hpp"

namespace ufab::obs {

struct ObsOptions {
  /// Master toggle: disabled means attach calls are no-ops and no state is
  /// recorded anywhere.
  bool enabled = true;
  /// Flight-recorder ring capacity (events retained).
  std::size_t ring_capacity = 1 << 16;
  /// Record wire-level events (drops, ECN marks, data retransmits). These
  /// are the only events that can fire per data packet; switch them off to
  /// keep the ring for control-plane history on pathological workloads.
  bool record_datapath = true;
  /// On a UFAB_CHECK failure, dump the flight recorder to `crash_dump_path`
  /// before aborting, so the violation's history is not lost with the run.
  bool dump_on_check_failure = true;
  std::string crash_dump_path = "ufab_flight_recorder.crash.json";
};

class Obs {
 public:
  explicit Obs(ObsOptions opts = {});
  ~Obs();
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  [[nodiscard]] bool enabled() const { return opts_.enabled; }
  [[nodiscard]] const ObsOptions& options() const { return opts_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }

  void record(const TraceEvent& ev) {
    if (opts_.enabled) recorder_.record(ev);
  }
  [[nodiscard]] bool record_datapath() const {
    return opts_.enabled && opts_.record_datapath;
  }

  /// The namer used for exported track labels (set by the harness, which
  /// knows real host/switch/tenant names).
  void set_track_namer(TrackNamer namer) { namer_ = std::move(namer); }
  [[nodiscard]] const TrackNamer& track_namer() const { return namer_; }

  /// Attaches the engine profiler so trace exports append its counter tracks
  /// (queue occupancy per shard, pid 6).  Null detaches; the harness keeps
  /// this in sync with Simulator::profiler() before each export.
  void set_profiler(const class Profiler* profiler, int shard_count) {
    profiler_ = profiler;
    profiler_shards_ = shard_count;
  }

  /// Writes the Chrome trace to `path` (truncating).
  void write_chrome_trace_file(const std::string& path) const;

 private:
  ObsOptions opts_;
  MetricRegistry metrics_;
  FlightRecorder recorder_;
  TrackNamer namer_;
  const class Profiler* profiler_ = nullptr;  ///< Counter-track source, optional.
  int profiler_shards_ = 0;
};

}  // namespace ufab::obs
