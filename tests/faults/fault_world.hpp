// Shared fixture for fault-injection tests: a uFAB fabric with edge agents on
// every host plus a FaultPlane targeting it.  Tests program the plane (often
// from a scheduled event, once runtime state like the chosen path is known)
// and then assert on both sides of the ledger: the plane's injected-fault
// counters and the edges' recovery counters.
#pragma once

#include <memory>

#include "src/faults/fault_plane.hpp"
#include "src/harness/fabric.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"

namespace ufab::faults {

inline telemetry::CoreConfig fault_test_core_config() {
  telemetry::CoreConfig cfg;
  cfg.clean_period = TimeNs{1'000'000'000};  // sweeps idle unless a test opts in
  return cfg;
}

struct FaultWorld {
  harness::Fabric fab;
  FaultPlane plane;

  /// `shards` > 0 partitions the engine into that many shards before any
  /// instrumentation schedules events (configure_sharding must come first).
  explicit FaultWorld(const harness::Fabric::Builder& builder, edge::EdgeConfig cfg = {},
                      telemetry::CoreConfig core = fault_test_core_config(),
                      std::uint64_t seed = 7, std::uint64_t fault_seed = 42, int shards = 0)
      : fab(builder, seed), plane(fab, fault_seed) {
    if (shards > 0) fab.configure_sharding(shards, sim::ShardExec::kSequential);
    fab.instrument_cores(core);
    for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
      const HostId host{static_cast<std::int32_t>(h)};
      fab.adopt_stack(host,
                      std::make_unique<edge::EdgeAgent>(fab.net(), fab.vms(), host, cfg,
                                                        transport::TransportOptions{},
                                                        fab.rng().fork(h)));
    }
    fab.install_pair_metering(TimeNs{1'000'000});
  }

  edge::EdgeAgent& edge(HostId h) { return fab.stack_as<edge::EdgeAgent>(h); }

  /// Average delivered rate of `pair` over [from, to), in Gbps.
  double pair_rate_gbps(VmPairId pair, TimeNs from, TimeNs to) {
    RateMeter* m = fab.pair_meter(pair);
    if (m == nullptr) return 0.0;
    double bytes = 0.0;
    for (const auto& s : m->series(to)) {
      if (s.at >= from && s.at < to) bytes += s.rate.bytes_per_sec() * m->bucket_width().sec();
    }
    return bytes * 8.0 / 1e9 / (to - from).sec();
  }

  /// Sum of Φ_l over every uFAB-C agent on `sw`.
  double phi_on_switch(NodeId sw) {
    double total = 0.0;
    for (const auto* a : fab.core_agents_of(sw)) total += a->phi_total();
    return total;
  }

  double total_phi() {
    double total = 0.0;
    for (const auto& a : fab.core_agents()) total += a->phi_total();
    return total;
  }
};

}  // namespace ufab::faults
