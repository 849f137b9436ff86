// Engine self-profiling plane: wall-clock attribution for the simulator.
//
// The observability plane of PR 2 answers "what did the *fabric* do"; this
// plane answers "where did the *engine's wall time* go".  It attributes every
// nanosecond of a run to a small closed set of typed scopes (ProfCat): event
// dispatch split by category, calendar-queue pop/migrate work, epoch-barrier
// stalls, cross-shard mailbox traffic, and — at the detailed level — the WFQ
// and telemetry hot paths inside events.  The numbers it produces
// (stall_fraction, shard_imbalance, per-scope ns) are what the sharding
// optimization work measures itself against (ROADMAP "make sharding actually
// pay").
//
// Design rules, in order of importance:
//
//  1. Passive.  Profiling reads wall clocks and writes per-shard slices; it
//     never schedules events, consumes randomness, or touches simulation
//     state.  An enabled run produces byte-identical simulation output to a
//     disabled run (tests/obs/profiler_test.cpp proves it, mirroring the
//     PR 2 obs guarantee).
//  2. Branch-gated, always compiled.  There is no build flag.  The engine
//     has one run loop and the profiler rides it as a nullable slice: a
//     disabled simulator pays one predictable null-slice test per event,
//     and a disabled ProfScope is a null-pointer compare.
//  3. Zero atomics on the hot path.  Each shard accumulates into its own
//     cache-line-aligned ProfSlice; the coordinator reads them only while
//     workers are parked at the epoch barrier (the same ownership discipline
//     as the shard calendars).  Detailed scopes reach their slice through a
//     plain thread_local pointer.
//
// Timing uses the TSC on x86-64 (rdtsc; cheap bare-metal, tens of ns on
// some VMs) and falls back to steady_clock elsewhere.  Because mean event
// cost is ~100 ns, even one clock-read pair per event can cost tens of
// percent — so level 1 times only every kTimingStride-th event (32) while
// *counting* every event exactly, and export scales the sampled ticks by
// count/sampled per category (a self-normalizing ratio estimator).
// Slices store raw ticks; conversion to nanoseconds happens once at export
// using a process-wide calibration performed on first use.
//
// Levels (UFAB_PROF):
//   0  disabled (default) — the run loop skips the attribution step.
//   1  loop-level attribution: dispatch/queue/barrier/inject scopes (strided
//      timing, exact counts), queue occupancy sampling every
//      kSamplePeriodNs of simulated time, epoch accounting.  The crossings
//      the export reports come from the engine's mailbox post counts.
//      Budgeted at <= 5% on BM_Fig17Slice (CI-guarded via
//      scripts/run_perf.sh).
//   2  adds per-call scopes inside events (WFQ next, telemetry ingest,
//      mailbox post) via UFAB_PROF_SCOPE; costs two clock reads per call and
//      is exempt from the overhead guard.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define UFAB_PROF_HAS_RDTSC 1
#else
#include <chrono>
#define UFAB_PROF_HAS_RDTSC 0
#endif

namespace ufab::obs {

/// The closed scope taxonomy.  Top-level categories (dispatch*, queue_pop,
/// mailbox_inject, barrier_wait) are disjoint — their sum is a shard's
/// accounted wall time.  Detailed categories (wfq, telemetry, mailbox_post)
/// nest *inside* dispatch and must not be added to the top-level sum.
enum class ProfCat : std::uint8_t {
  kDispatchDeliver = 0,  ///< Packet-delivery events (link propagation, crossings).
  kDispatchClosure,      ///< All other event closures (timers, host logic, ...).
  kQueuePop,             ///< Calendar peek + overflow migration + pop.
  kMailboxInject,        ///< Coordinator draining outboxes into calendars.
  kBarrierWait,          ///< Epoch-barrier stall (the only non-busy category).
  kWfq,                  ///< [level 2] WfqScheduler::next inside dispatch.
  kTelemetry,            ///< [level 2] telemetry agent ingest inside dispatch.
  kMailboxPost,          ///< [level 2] post_cross inside dispatch.
  kCount,
};

inline constexpr int kProfCatCount = static_cast<int>(ProfCat::kCount);

/// Stable snake_case name for JSON/metric labels.
[[nodiscard]] const char* to_string(ProfCat cat);

/// The profiling clock: raw ticks, converted to ns only at export.
struct ProfClock {
  [[nodiscard]] static std::int64_t now() {
#if UFAB_PROF_HAS_RDTSC
    return static_cast<std::int64_t>(__rdtsc());
#else
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }
  /// Nanoseconds per tick; calibrated once per process on first call (a few
  /// hundred microseconds of busy-wait), cached thereafter.  Export-path
  /// only — never called from the hot loops.
  [[nodiscard]] static double ns_per_tick();
  /// Median ticks a back-to-back now()/now() pair reports — the clock's own
  /// read latency, which every measured interval includes once.  The export
  /// subtracts it per sampled interval so slow TSC reads (VMs) do not
  /// inflate the attribution.  Measured once per process with ns_per_tick().
  [[nodiscard]] static std::int64_t self_ticks();
};

/// One shard's accumulation buffer: ticks, exact call counts, and the number
/// of timed (sampled) calls per category.  `count == sampled` for scopes that
/// time every call (ProfScope, barrier waits); the strided level-1 loop keeps
/// counts exact but only accumulates ticks on sampled events — the export
/// corrects by count/sampled.  Cache-line aligned so adjacent shards' slices
/// never false-share.
struct alignas(64) ProfSlice {
  std::array<std::int64_t, kProfCatCount> ticks{};
  std::array<std::uint64_t, kProfCatCount> count{};
  std::array<std::uint64_t, kProfCatCount> sampled{};
  std::uint64_t strided = 0;  ///< Level-1 loop's stride counter (owner-only).

  /// Fully-timed call: ticks, count, and sampled move together.
  void add(ProfCat cat, std::int64_t dt) {
    ticks[static_cast<std::size_t>(cat)] += dt;
    ++count[static_cast<std::size_t>(cat)];
    ++sampled[static_cast<std::size_t>(cat)];
  }
  /// Untimed call: exact count only.
  void bump(ProfCat cat) { ++count[static_cast<std::size_t>(cat)]; }
  /// Timed portion of a strided category (count bumped separately).
  void add_sampled(ProfCat cat, std::int64_t dt) {
    ticks[static_cast<std::size_t>(cat)] += dt;
    ++sampled[static_cast<std::size_t>(cat)];
  }
  void merge(const ProfSlice& o) {
    for (int c = 0; c < kProfCatCount; ++c) {
      ticks[static_cast<std::size_t>(c)] += o.ticks[static_cast<std::size_t>(c)];
      count[static_cast<std::size_t>(c)] += o.count[static_cast<std::size_t>(c)];
      sampled[static_cast<std::size_t>(c)] += o.sampled[static_cast<std::size_t>(c)];
    }
  }
};

/// The thread's detailed-scope target.  Null (the default) makes every
/// UFAB_PROF_SCOPE a two-instruction no-op; the engine points it at the
/// running shard's slice only at level 2, for the duration of a pass.
inline thread_local ProfSlice* tls_prof_slice = nullptr;

/// RAII scope token: accumulates elapsed ticks into `slice` under `cat`.
/// A null slice disables the token entirely (no clock reads).
class [[nodiscard]] ProfScope {
 public:
  ProfScope(ProfSlice* slice, ProfCat cat) : slice_(slice), cat_(cat) {
    if (slice_ != nullptr) t0_ = ProfClock::now();
  }
  ~ProfScope() {
    if (slice_ != nullptr) slice_->add(cat_, ProfClock::now() - t0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfSlice* slice_;
  ProfCat cat_;
  std::int64_t t0_ = 0;
};

// Detailed (level 2) scope: times the rest of the enclosing block against the
// current thread's slice.  Safe to leave in hot code permanently — with
// profiling off (or at level 1) tls_prof_slice is null and the token is a
// load+branch.
#define UFAB_PROF_SCOPE_CAT_(name, line) name##line
#define UFAB_PROF_SCOPE_CAT(name, line) UFAB_PROF_SCOPE_CAT_(name, line)
#define UFAB_PROF_SCOPE(cat)                                              \
  const ::ufab::obs::ProfScope UFAB_PROF_SCOPE_CAT(ufab_prof_scope_,      \
                                                   __LINE__)(             \
      ::ufab::obs::tls_prof_slice, cat)

/// One calendar-queue introspection sample, taken on a sim-time cadence.
/// Everything here is simulation state, so the sample series is fully
/// deterministic — only the slice timings vary run to run.
struct ProfSample {
  std::int64_t sim_ns = 0;
  std::uint64_t ring_events = 0;      ///< Near-horizon tier occupancy.
  std::uint64_t overflow_events = 0;  ///< Far-horizon tier occupancy.
  std::uint64_t processed = 0;        ///< Shard events processed so far.
  std::uint64_t crossings_out = 0;    ///< Outbox posted_total so far.
};

struct ProfOptions {
  int level = 1;  ///< 1 = loop scopes, 2 = + detailed scopes.
};

/// Derived summary statistics over all shard slices.
struct ProfDerived {
  std::vector<double> busy_ns_per_shard;   ///< Disjoint top-level busy ns.
  std::vector<double> stall_ns_per_shard;  ///< Barrier-wait ns.
  double busy_ns_total = 0;
  double stall_ns_total = 0;
  /// stall / (busy + stall) across shards; 0 for serial runs.
  double stall_fraction = 0;
  /// max(busy) / mean(busy) across shards; 1.0 when perfectly balanced.
  double shard_imbalance = 1.0;
};

/// Run context the engine passes in at export time (the profiler itself
/// holds no simulator pointers — it is a passive sink).
struct ProfContext {
  int shard_count = 1;
  bool threaded = false;
  std::int64_t lookahead_ns = -1;  ///< -1 = unbounded (no cut links).
  int epoch_windows = 1;           ///< Max rungs (lookahead windows) per barrier.
  std::uint64_t handoff_max_batch = 0;  ///< Largest single mailbox drain.
  std::uint64_t mailbox_flushes = 0;    ///< Non-empty rung batches, all mailboxes.
  std::vector<std::uint64_t> events_per_shard;
  /// Crossings each shard posted; after a pass every one has been injected,
  /// so their sum is the export's `epochs.crossings_injected`.
  std::vector<std::uint64_t> crossings_per_shard;
};

/// Per-simulator profiling state: one slice + sample ring per shard, plus
/// epoch accounting.  Owned by sim::Simulator; all mutation happens under
/// the engine's existing shard-ownership discipline (a shard's slice is
/// touched only by the thread running that shard's pass; epoch accounting
/// only by the coordinator while workers are parked).
class Profiler {
 public:
  static constexpr int kMaxShards = 64;  ///< Mirrors sim::Simulator::kMaxShards.
  /// Number of log2 occupancy buckets: bucket i counts samples with
  /// bit_width(occupancy) == i, i.e. bucket 0 is "empty", bucket i covers
  /// [2^(i-1), 2^i).
  static constexpr int kOccBuckets = 33;
  /// Queue sampling cadence, in simulated ns.
  static constexpr std::int64_t kSamplePeriodNs = 100'000;
  /// Per-shard sample ring; the oldest sample is overwritten.
  static constexpr std::size_t kMaxSamplesPerShard = 4096;
  /// The level-1 loop times every kTimingStride-th event (a power of two).
  /// Timing every event is exact but costs up to tens of percent on VMs with
  /// slow TSC reads; 32 keeps the realized overhead inside the <= 5% CI
  /// guard while counts stay exact.
  static constexpr std::uint64_t kTimingStride = 32;
  static_assert((kTimingStride & (kTimingStride - 1)) == 0, "stride must be a power of two");

  explicit Profiler(const ProfOptions& opts);

  [[nodiscard]] int level() const { return opts_.level; }
  [[nodiscard]] bool detailed() const { return opts_.level >= 2; }

  /// Mask for the level-1 timing stride: an event is timed when
  /// `(slice.strided++ & timing_mask()) == 0`.
  [[nodiscard]] static constexpr std::uint64_t timing_mask() { return kTimingStride - 1; }

  /// Parses UFAB_PROF from the environment: unset/"0" -> 0, "1" -> 1,
  /// anything >= 2 -> 2.
  [[nodiscard]] static int env_level();

  [[nodiscard]] ProfSlice& slice(int shard) {
    return slices_[static_cast<std::size_t>(shard)];
  }
  [[nodiscard]] const ProfSlice& slice(int shard) const {
    return slices_[static_cast<std::size_t>(shard)];
  }

  /// The sim-time threshold for `shard`'s next queue sample; the engine loop
  /// compares against it inline and calls add_sample when crossed.
  [[nodiscard]] std::int64_t next_sample_ns(int shard) const {
    return next_sample_ns_[static_cast<std::size_t>(shard)];
  }
  void add_sample(int shard, const ProfSample& sample);

  /// Number of log2 epoch-length buckets: bucket i counts epochs with
  /// bit_width(sim_ns) == i (bucket 0 would be a zero-length epoch; bucket i
  /// covers [2^(i-1), 2^i) ns).  48 buckets reach ~1.6 simulated days.
  static constexpr int kEpochLenBuckets = 48;

  /// Epoch accounting (coordinator only, between passes).  One note_epoch
  /// per coordinator barrier, carrying the sim-time span the barrier paid
  /// for — a pass reports its whole rung ladder, which is exactly what the
  /// epoch-length histogram is for.
  void note_epoch(std::int64_t epoch_sim_ns);
  /// Rungs (lookahead windows) walked inside a pass: spin-synchronized
  /// ends, no barrier.
  void note_windows(int windows) { windows_ += static_cast<std::uint64_t>(windows); }
  void add_run_wall(std::int64_t ticks) { run_wall_ticks_ += ticks; }

  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] const std::array<std::uint64_t, kEpochLenBuckets>& epoch_len_hist() const {
    return epoch_len_hist_;
  }
  [[nodiscard]] double run_wall_ns() const;

  /// Samples recorded for `shard`, oldest first (ring-decoded).
  [[nodiscard]] std::vector<ProfSample> samples(int shard) const;
  [[nodiscard]] std::uint64_t samples_taken(int shard) const {
    return samples_taken_[static_cast<std::size_t>(shard)];
  }
  [[nodiscard]] const std::array<std::uint64_t, kOccBuckets>& ring_occ_hist(int shard) const {
    return ring_occ_hist_[static_cast<std::size_t>(shard)];
  }
  [[nodiscard]] const std::array<std::uint64_t, kOccBuckets>& overflow_occ_hist(
      int shard) const {
    return overflow_occ_hist_[static_cast<std::size_t>(shard)];
  }

  /// Stride-corrected wall nanoseconds attributed to one shard x scope cell:
  /// raw sampled ticks scaled by count/sampled (1.0 for fully-timed scopes).
  [[nodiscard]] double scope_ns(int shard, ProfCat cat) const;

  [[nodiscard]] ProfDerived derived(int shard_count) const;

  /// The per-run profile artifact: run context + shard x scope time matrix +
  /// epoch stats + occupancy histograms + derived summary.
  [[nodiscard]] std::string to_json(const ProfContext& ctx) const;

  /// Appends Chrome-trace counter tracks (phase "C", pid kTracePid) for the
  /// queue-occupancy sample series, plus the pid/tid metadata records.
  /// `first` follows the FlightRecorder emit convention: true when no event
  /// has been written yet (suppresses the leading comma).
  void write_chrome_counter_events(std::ostream& os, bool& first, int shard_count) const;

  /// The trace pid profiler counter tracks live under (FlightRecorder's
  /// fabric pids are 1..5).
  static constexpr int kTracePid = 6;

 private:
  ProfOptions opts_;
  std::array<ProfSlice, kMaxShards> slices_{};
  std::array<std::int64_t, kMaxShards> next_sample_ns_{};
  std::array<std::uint64_t, kMaxShards> samples_taken_{};
  std::array<std::vector<ProfSample>, kMaxShards> sample_rings_;
  std::array<std::array<std::uint64_t, kOccBuckets>, kMaxShards> ring_occ_hist_{};
  std::array<std::array<std::uint64_t, kOccBuckets>, kMaxShards> overflow_occ_hist_{};
  std::uint64_t epochs_ = 0;
  std::int64_t epoch_sim_ns_total_ = 0;
  std::int64_t epoch_sim_ns_min_ = 0;
  std::int64_t epoch_sim_ns_max_ = 0;
  std::uint64_t windows_ = 0;
  std::array<std::uint64_t, kEpochLenBuckets> epoch_len_hist_{};
  std::int64_t run_wall_ticks_ = 0;
};

}  // namespace ufab::obs
