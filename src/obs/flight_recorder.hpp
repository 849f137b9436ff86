// Flight recorder: a bounded ring of typed simulation events.
//
// Every interesting state transition — probe sent / INT-stamped / echoed /
// retransmitted, window updates with the Eqn 1–3 term that bound them, path
// migrations, Φ_l/W_l register writes, Bloom mutations, fault activations,
// drops and ECN marks — is appended as one fixed-size TraceEvent.  The ring
// overwrites the oldest entry when full, so recording cost is a bounds check
// plus a 64-byte store regardless of run length, and the recorder always
// holds the most recent window of history ("why did the p99 spike?").
//
// Exports:
//  * write_json      — the raw event list, one JSON object per event;
//  * write_chrome_trace — Chrome trace-event JSON loadable in chrome://tracing
//    or Perfetto, one track per host / switch egress / tenant / link, with
//    flow arrows stitching each probe's send → INT-stamp → echo →
//    window-update causal chain.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/ids.hpp"
#include "src/core/time.hpp"

namespace ufab::obs {

enum class EventKind : std::uint8_t {
  // --- edge (uFAB-E) ---
  kProbeSent,          ///< a=phi claimed, b=window claimed (bytes/s), seq=probe seq.
  kScoutSent,          ///< a=candidate path idx, seq=scout round.
  kProbeRetransmit,    ///< a=consecutive losses, seq=timed-out probe seq.
  kProbeEchoed,        ///< Destination turned the probe around; a=admitted phi_r.
  kWindowUpdate,       ///< a=old window, b=new window (bytes); detail=WindowBound.
  kPathMigration,      ///< a=old path idx, b=new path idx.
  kFinishSent,         ///< Deregistration probe sent; seq=reg_key low bits.
  kStateLossDetected,  ///< Φ_l discontinuity seen on the current path.
  kStaleTelemetry,     ///< INT stamps older than the staleness bound.
  kGuaranteeDegraded,  ///< Window fell back to the guarantee-only BDP.
  kDataRetransmit,     ///< Transport-level data retransmission; seq=packet id.
  // --- core (uFAB-C) ---
  kProbeIntStamp,   ///< INT record appended; a=Φ_l, b=q_l bytes; link set.
  kRegisterWrite,   ///< Registers folded a probe; a=Φ_l, b=W_l after the write.
  kRegisterClear,   ///< Pair deregistered (finish probe or sweep); a=Φ_l after.
  kBloomInsert,     ///< seq=registration key.
  kBloomRemove,     ///< seq=registration key.
  kBloomClear,      ///< Whole-filter wipe (warm restart).
  kSwitchReset,     ///< uFAB-C register state wiped.
  // --- wire / faults ---
  kDrop,           ///< detail=DropReason; a=packet size bytes; link set.
  kEcnMark,        ///< CE set on enqueue; a=queue bytes at mark; link set.
  kLinkDown,       ///< Administrative down (fault plane).
  kLinkUp,         ///< Administrative up.
  kFaultLossDrop,  ///< Bernoulli wire-loss rule fired; a=packet size.
  kIntTamper,      ///< detail: 0=stale 1=corrupt 2=strip.
  kBloomJunk,      ///< Junk key inserted (saturation fault).
  // --- harness ---
  kCheckFailure,  ///< UFAB_CHECK fired; the recorder dumped itself.
};

[[nodiscard]] const char* to_string(EventKind kind);

/// Which term of Eqns 1–3 (or which safety fallback) produced a window.
enum class WindowBound : std::uint8_t {
  kBootstrapRamp,   ///< Two-stage stage 1: additive-increase ramp (Eqn 1 share).
  kEqn3,            ///< Utilization window (Eqns 2–3 min over links).
  kGuaranteeOnly,   ///< Degraded: guarantee BDP only (stale/lost telemetry).
  kFloor,           ///< Clamped up to the configured window floor.
};

[[nodiscard]] const char* to_string(WindowBound bound);

enum class DropReason : std::uint8_t { kTailDrop, kLinkDown, kWireFault, kNoRoute };

[[nodiscard]] const char* to_string(DropReason reason);

/// Where an event happened; becomes one Chrome-trace track.
enum class TrackKind : std::uint8_t { kHost, kSwitch, kTenant, kLink, kFabric };

struct Track {
  TrackKind kind = TrackKind::kFabric;
  std::int32_t id = -1;   ///< HostId / switch NodeId / TenantId / LinkId value.
  std::int32_t sub = -1;  ///< Switch egress port (switch tracks only).

  [[nodiscard]] static Track host(HostId h) { return {TrackKind::kHost, h.value(), -1}; }
  [[nodiscard]] static Track switch_port(NodeId sw, std::int32_t port) {
    return {TrackKind::kSwitch, sw.value(), port};
  }
  [[nodiscard]] static Track tenant(TenantId t) { return {TrackKind::kTenant, t.value(), -1}; }
  [[nodiscard]] static Track link(LinkId l) { return {TrackKind::kLink, l.value(), -1}; }
};

/// One recorded event.  Fixed-size and trivially copyable: recording is a
/// store into a pre-sized ring, never an allocation.
struct TraceEvent {
  TimeNs at;
  EventKind kind = EventKind::kCheckFailure;
  std::uint8_t detail = 0;  ///< Kind-specific sub-code (WindowBound, DropReason…).
  Track track;
  VmPairId pair{};    ///< Invalid when not pair-scoped.
  TenantId tenant{};  ///< Invalid when unknown.
  LinkId link{};      ///< Invalid when not link-scoped.
  std::uint64_t seq = 0;  ///< Probe sequence / packet id / registration key.
  double a = 0.0;         ///< Kind-specific (see EventKind comments).
  double b = 0.0;
};

/// Maps a Track to a human-readable name in exports (the harness supplies
/// real host/switch/tenant names; the default renders generic ones).
using TrackNamer = std::function<std::string(const Track&)>;

/// Recording routes to a per-shard ring (ufab::current_shard_index()), so a
/// sharded engine's worker threads never share a write cursor; exports merge
/// the rings by timestamp with (shard, ring) order breaking ties, which is
/// deterministic and — when only shard 0 ever records — identical to the old
/// single-ring behavior.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 16);

  void record(const TraceEvent& ev);

  /// Per-shard ring capacity.
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] std::size_t size() const;
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded_total() const;

  /// Events currently held, oldest first (merged across shard rings).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Causal slice: every retained event touching `pair`, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events_for_pair(VmPairId pair) const;

  void clear();

  void write_json(std::ostream& os) const;
  /// Chrome trace-event JSON (schema 2: top-level "ufab_schema" key).  When
  /// `profiler` is non-null its queue-occupancy counter tracks (pid 6) are
  /// appended after the fabric events — scripts/render_trace.py validates
  /// them and rejects profiler counters in a schema-1 trace.
  void write_chrome_trace(std::ostream& os, const TrackNamer& namer = {},
                          const class Profiler* profiler = nullptr, int shard_count = 0) const;

 private:
  /// Mirrors the engine's shard cap; each slot is written by one shard only.
  static constexpr std::size_t kMaxRings = 64;
  struct Ring {
    std::vector<TraceEvent> buf;
    std::uint64_t total = 0;  ///< Next write slot = total % buf.size().
  };
  [[nodiscard]] Ring& ring_for(int shard);
  /// events()' order as pointers into the rings, so exports read each event
  /// in place instead of copying every held event first.
  [[nodiscard]] std::vector<const TraceEvent*> ordered() const;

  std::size_t cap_;
  std::array<std::unique_ptr<Ring>, kMaxRings> rings_;
};

}  // namespace ufab::obs
