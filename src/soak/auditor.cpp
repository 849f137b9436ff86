#include "src/soak/auditor.hpp"

#include <algorithm>
#include <cstdio>

#include "src/harness/fabric.hpp"

namespace ufab::soak {

InvariantAuditor::InvariantAuditor(harness::Fabric& fab, AuditorLimits limits)
    : fab_(fab), limits_(limits) {}

std::size_t InvariantAuditor::packets_in_flight() const {
  std::size_t in_flight = 0;
  for (int s = 0; s < fab_.sim().shard_count(); ++s) {
    const sim::PacketPool& pool = fab_.sim().shard_pool(s);
    in_flight += pool.allocated() - pool.free_count();
  }
  return in_flight;
}

void InvariantAuditor::report(const std::string& invariant, const std::string& detail) {
  ++violation_count_;
  if (violations_.size() < limits_.max_recorded) {
    violations_.push_back({invariant, detail, fab_.sim().now()});
  }
}

void InvariantAuditor::checkpoint() {
  ++checkpoints_;
  char buf[192];

  // Packet-conservation ledger: per shard, the freelist can never exceed
  // what was allocated, and fabric-wide in-flight must stay under the cap.
  for (int s = 0; s < fab_.sim().shard_count(); ++s) {
    const sim::PacketPool& pool = fab_.sim().shard_pool(s);
    if (pool.free_count() > pool.allocated()) {
      std::snprintf(buf, sizeof(buf), "shard %d: free %zu > allocated %zu", s,
                    pool.free_count(), pool.allocated());
      report("pool-ledger", buf);
    }
  }
  const std::size_t in_flight = packets_in_flight();
  peak_inflight_ = std::max(peak_inflight_, in_flight);
  if (in_flight > limits_.max_packets_in_flight) {
    std::snprintf(buf, sizeof(buf), "%zu packets in flight exceeds cap %zu", in_flight,
                  limits_.max_packets_in_flight);
    report("pool-bound", buf);
  }

  const std::size_t pending = fab_.sim().pending();
  peak_pending_ = std::max(peak_pending_, pending);
  if (pending > limits_.max_pending_events) {
    std::snprintf(buf, sizeof(buf), "%zu pending events exceeds cap %zu", pending,
                  limits_.max_pending_events);
    report("event-bound", buf);
  }

  for (const sim::Link* l : fab_.net().links()) {
    const std::int64_t q = l->queue_bytes();
    if (q < 0 || q > l->queue_limit_bytes()) {
      std::snprintf(buf, sizeof(buf), "%s queue %lld outside [0, %lld]", l->name().c_str(),
                    static_cast<long long>(q), static_cast<long long>(l->queue_limit_bytes()));
      report("queue-bound", buf);
    }
  }
}

void InvariantAuditor::final_audit() {
  char buf[192];
  // After the workload stops and the drain ends, every link queue
  // must be empty — anything still queued is a packet the fabric lost track
  // of (recurring control timers carry no queued bytes).
  for (const sim::Link* l : fab_.net().links()) {
    if (l->queue_bytes() != 0) {
      std::snprintf(buf, sizeof(buf), "%s still queues %lld bytes after drain",
                    l->name().c_str(), static_cast<long long>(l->queue_bytes()));
      report("drain-queues", buf);
    }
  }
  // And the pool ledger must balance: all allocated packets back on the
  // freelists.  A nonzero residue is a leak (or a stuck event holding one).
  const std::size_t in_flight = packets_in_flight();
  if (in_flight != 0) {
    std::snprintf(buf, sizeof(buf), "%zu pool packets never returned", in_flight);
    report("drain-pool", buf);
  }
}

}  // namespace ufab::soak
