// The link pipe under fault injection (DESIGN.md §13.1): a flap schedule must
// produce identical recovery behaviour whether or not the links carry
// wire-exit events, on any partition.  The fault plane gives flapped links
// wire-exit events on every partition (a cut link's crossings posted at
// commit could not be recalled by set_down), so the option itself must be
// schedule-neutral.
#include <gtest/gtest.h>

#include "tests/faults/fault_world.hpp"

namespace ufab::faults {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

struct FlapOutcome {
  std::int64_t link_downs = 0;
  std::int64_t drops = 0;
  double rate_during = 0.0;
  double rate_after = 0.0;
  std::uint64_t events = 0;

  bool operator==(const FlapOutcome&) const = default;
};

/// A backlogged pair across a leaf-spine whose ToR uplink flaps repeatedly
/// mid-stream.  `fused == false` gives every link wire-exit events before any
/// traffic (the reference); otherwise only the flapped trunks get them, from
/// the fault plane.  At 2 shards the flapped uplink is a cut link — the case
/// the option protects.
FlapOutcome run_flap_scenario(bool fused, int shards) {
  FaultWorld w([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); }, {},
               fault_test_core_config(), 7, 42, shards);
  if (!fused) {
    for (sim::Link* link : w.fab.net().links()) link->enable_wire_exit();
  }
  const TenantId t = w.fab.vms().add_tenant("A", 2_Gbps);
  const VmPairId pair{w.fab.vms().add_vm(t, HostId{0}), w.fab.vms().add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 30_ms);
  // uFAB source-routes the pair over one of the two spines; flap both ToR-0
  // uplinks so the outage hits the chosen trunk regardless of which spine the
  // edge picked.  The plane gives both wire-exit events at arm time (before
  // any traffic), while every other switch link keeps one event per hop.
  // Three 1 ms outages, one per 4 ms period, each dropping packets that are
  // still serializing or queued.
  const auto paths = w.fab.net().paths(HostId{0}, HostId{2});
  const LinkId up0 = paths[0].links[1];
  const LinkId up1 = paths[1].links[1];
  w.plane.flap(up0, 5_ms, 6_ms, 3, 4_ms);
  w.plane.flap(up1, 5_ms, 6_ms, 3, 4_ms);
  w.plane.arm();
  w.fab.sim().run_until(30_ms);

  FlapOutcome out;
  out.link_downs = w.plane.counters().link_downs;
  out.drops = w.fab.net().link(up0)->drops() + w.fab.net().link(up1)->drops();
  out.rate_during = w.pair_rate_gbps(pair, 5_ms, 17_ms);
  out.rate_after = w.pair_rate_gbps(pair, 20_ms, 30_ms);
  out.events = w.fab.sim().events_processed();
  return out;
}

TEST(FusedFaults, FlapRecoveryIdenticalAcrossSerializersAndPartitions) {
  const FlapOutcome legacy = run_flap_scenario(false, 1);
  ASSERT_EQ(legacy.link_downs, 6);
  EXPECT_GT(legacy.drops, 0);           // the flap aborted live traffic
  EXPECT_GT(legacy.rate_after, 1.5);    // and the pair recovered
  // Only the flapped trunks carry wire-exit events now — all observables
  // must nonetheless match bit for bit, with fewer events.
  const FlapOutcome fused = run_flap_scenario(true, 1);
  EXPECT_EQ(fused.link_downs, legacy.link_downs);
  EXPECT_EQ(fused.drops, legacy.drops);
  EXPECT_EQ(fused.rate_during, legacy.rate_during);
  EXPECT_EQ(fused.rate_after, legacy.rate_after);
  EXPECT_LT(fused.events, legacy.events);

  // Partition-invariance with faults armed: the option applies on every
  // partition, so event counts and statistics stay bit-identical.
  const FlapOutcome fused2 = run_flap_scenario(true, 2);
  EXPECT_EQ(fused2, fused);
  const FlapOutcome legacy2 = run_flap_scenario(false, 2);
  EXPECT_EQ(legacy2, legacy);
}

}  // namespace
}  // namespace ufab::faults
