// Invariant auditor: the soak harness's loud failure detector.
//
// A soak run is only meaningful if silent corruption cannot hide behind
// averaged metrics, so the auditor cross-checks conservation ledgers the
// engine already keeps:
//
//   * packet conservation — per-shard PacketPool ledgers (allocated vs free
//     vs recycled) must stay consistent, and the fabric-wide in-flight count
//     must stay under a hard bound at every checkpoint (a leak shows up as a
//     ratcheting floor long before it OOMs);
//   * event-queue sanity — the pending-event count must stay bounded during
//     the run, and after traffic stops plus a drain grace the queues must be
//     back to recurring timers only;
//   * link-queue sanity — every queue depth within [0, configured limit];
//   * episode post-conditions — reported by the runner (e.g. "every edge
//     re-registered within K RTTs of a switch reset") through report().
//
// Violations are recorded (capped) and counted; the soak exits nonzero if
// any occurred.  Checks run at window edges, so their cost is O(links) per
// window — invisible next to the packet work between windows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/time.hpp"

namespace ufab::harness {
class Fabric;
}  // namespace ufab::harness

namespace ufab::soak {

struct Violation {
  std::string invariant;
  std::string detail;
  TimeNs at;
};

struct AuditorLimits {
  /// Hard cap on fabric-wide in-flight (allocated minus free) pool packets.
  std::size_t max_packets_in_flight = 200'000;
  /// Hard cap on pending simulator events at any checkpoint.
  std::size_t max_pending_events = 1'000'000;
  /// Violations kept verbatim; beyond this only the count grows.
  std::size_t max_recorded = 64;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(harness::Fabric& fab, AuditorLimits limits = {});

  /// Periodic checks (pool ledger, pending bound, link-queue bounds).
  void checkpoint();

  /// End-of-run checks, after traffic stopped and the drain ended: link
  /// queues empty, no packets left in flight.  The runner drains for
  /// SoakOptions::drain_grace, then one window at a time while packets are
  /// still in flight, up to four graces; whatever is left then is flagged.
  void final_audit();

  /// Records an externally-checked post-condition failure (runner episodes).
  void report(const std::string& invariant, const std::string& detail);

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::size_t violation_count() const { return violation_count_; }
  [[nodiscard]] std::size_t checkpoints() const { return checkpoints_; }

  // --- peaks, for memory-bound assertions ---
  [[nodiscard]] std::size_t peak_packets_in_flight() const { return peak_inflight_; }
  [[nodiscard]] std::size_t peak_pending_events() const { return peak_pending_; }

  /// Fabric-wide pool packets allocated and not yet returned.
  [[nodiscard]] std::size_t packets_in_flight() const;

 private:
  harness::Fabric& fab_;
  AuditorLimits limits_;
  std::vector<Violation> violations_;
  std::size_t violation_count_ = 0;
  std::size_t checkpoints_ = 0;
  std::size_t peak_inflight_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace ufab::soak
