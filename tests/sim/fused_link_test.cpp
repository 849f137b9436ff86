// The link pipe (DESIGN.md §13.1): one resident calendar event per busy push
// link, with delivery times, drop accounting, telemetry, and flap semantics
// independent of the wire-exit option.  The same scenarios are replayed
// against a link with wire-exit events (enable_wire_exit, the option the
// fault plane sets on flapped links; "legacy" below) to show the option is
// schedule-neutral.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/link.hpp"
#include "src/sim/node.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

class SinkNode : public Node {
 public:
  explicit SinkNode(Simulator& sim) : Node(NodeId{0}, "sink"), sim_(sim) {}
  void receive(PacketPtr pkt) override {
    arrivals.push_back({sim_.now(), std::move(pkt)});
  }
  std::vector<std::pair<TimeNs, PacketPtr>> arrivals;

 private:
  Simulator& sim_;
};

PacketPtr make_data(std::int32_t bytes) {
  return Packet::make(PacketKind::kData, VmPairId{VmId{0}, VmId{1}}, TenantId{0}, HostId{0},
                      HostId{1}, bytes);
}

/// A serial simulator with one link, either plain ("fused") or given
/// wire-exit events before any traffic (the reference it must match).
struct World {
  explicit World(bool fused, TimeNs prop = 1_us) : fused(fused), sink(sim) {
    set_link(LinkConfig{10_Gbps, prop, 1'000'000, -1, 0.95});
  }
  void set_link(LinkConfig cfg) {
    link = std::make_unique<Link>(sim, LinkId{0}, "l", &sink, cfg);
    if (!fused) link->enable_wire_exit();
  }
  bool fused;
  Simulator sim;
  SinkNode sink;
  std::unique_ptr<Link> link;
};

TEST(FusedLink, MatchesLegacyDeliveryTimesAndCounters) {
  std::vector<std::pair<TimeNs, std::int32_t>> legacy_arrivals;
  for (const bool fused : {false, true}) {
    World w(fused);
    for (const std::int32_t bytes : {1500, 64, 1500, 9000, 300}) {
      w.link->enqueue(make_data(bytes));
    }
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 5u);
    if (!fused) {
      for (const auto& [at, pkt] : w.sink.arrivals) {
        legacy_arrivals.push_back({at, pkt->size_bytes});
      }
      continue;
    }
    for (std::size_t i = 0; i < w.sink.arrivals.size(); ++i) {
      EXPECT_EQ(w.sink.arrivals[i].first, legacy_arrivals[i].first) << "packet " << i;
      EXPECT_EQ(w.sink.arrivals[i].second->size_bytes, legacy_arrivals[i].second);
    }
    EXPECT_EQ(w.link->tx_bytes_cum(), 1500 + 64 + 1500 + 9000 + 300);
    EXPECT_EQ(w.link->drops(), 0);
    EXPECT_EQ(w.link->pipe_depth(), 0u);
  }
}

TEST(FusedLink, OneResidentCalendarEventPerBusyLink) {
  // Long propagation: all eight packets serialize before the first arrives,
  // so with wire-exit events the calendar holds one DeliverEvent per packet
  // on the wire while the plain pipe holds them all behind a single head
  // event.
  World legacy(false, 100_us);
  World fused(true, 100_us);
  for (int i = 0; i < 8; ++i) {
    legacy.link->enqueue(make_data(1500));
    fused.link->enqueue(make_data(1500));
  }
  // 8 x 1200 ns of serialization ends at 9.6 us; first delivery at 101.2 us.
  legacy.sim.run_until(50_us);
  fused.sim.run_until(50_us);
  EXPECT_EQ(legacy.sim.pending(), 8u);  // one propagation event per packet
  EXPECT_EQ(fused.sim.pending(), 1u);   // the head departure only
  EXPECT_EQ(fused.link->pipe_depth(), 8u);
  EXPECT_EQ(fused.link->tx_bytes_cum(), legacy.link->tx_bytes_cum());
  legacy.sim.run();
  fused.sim.run();
  ASSERT_EQ(fused.sink.arrivals.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fused.sink.arrivals[i].first, legacy.sink.arrivals[i].first);
  }
  // The fused run retires one calendar event per hop instead of two.
  EXPECT_LT(fused.sim.events_processed(), legacy.sim.events_processed());
}

TEST(FusedLink, TelemetryMatchesLegacyMidStream) {
  World legacy(false, 2_us);
  World fused(true, 2_us);
  for (int i = 0; i < 6; ++i) {
    legacy.link->enqueue(make_data(1500));
    fused.link->enqueue(make_data(1500));
  }
  for (const TimeNs at : {TimeNs{1000}, TimeNs{1200}, TimeNs{2500}, TimeNs{5000}, TimeNs{9000}}) {
    legacy.sim.run_until(at);
    fused.sim.run_until(at);
    EXPECT_EQ(fused.link->queue_bytes(), legacy.link->queue_bytes()) << "at " << at.ns();
    EXPECT_EQ(fused.link->tx_bytes_cum(), legacy.link->tx_bytes_cum()) << "at " << at.ns();
    EXPECT_EQ(fused.link->max_queue_bytes(), legacy.link->max_queue_bytes()) << "at " << at.ns();
    EXPECT_DOUBLE_EQ(fused.link->tx_rate().bits_per_sec(), legacy.link->tx_rate().bits_per_sec())
        << "at " << at.ns();
  }
}

TEST(FusedLink, TailDropAndEcnMatchLegacy) {
  // Tail drop: queue limit fits exactly two MTUs beyond the in-service
  // packet, so of five arrivals two must drop on both serializer paths.
  for (const bool fused : {false, true}) {
    World w(fused);
    w.set_link(LinkConfig{10_Gbps, 1_us, 3000, -1, 0.95});
    for (int i = 0; i < 5; ++i) w.link->enqueue(make_data(1500));
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 3u) << "fused=" << fused;
    EXPECT_EQ(w.link->drops(), 2) << "fused=" << fused;
  }
  // ECN: the mark pattern (which packets exceed the standing-queue
  // threshold at enqueue) must be identical packet by packet.
  World legacy(false);
  World marked(true);
  legacy.set_link(LinkConfig{10_Gbps, 1_us, 1'000'000, 2000, 0.95});
  marked.set_link(LinkConfig{10_Gbps, 1_us, 1'000'000, 2000, 0.95});
  for (int i = 0; i < 4; ++i) {
    legacy.link->enqueue(make_data(1500));
    marked.link->enqueue(make_data(1500));
  }
  legacy.sim.run();
  marked.sim.run();
  ASSERT_EQ(marked.sink.arrivals.size(), 4u);
  int marks = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(marked.sink.arrivals[i].second->ecn_ce, legacy.sink.arrivals[i].second->ecn_ce)
        << "packet " << i;
    marks += marked.sink.arrivals[i].second->ecn_ce ? 1 : 0;
  }
  EXPECT_GE(marks, 1);
  EXPECT_FALSE(marked.sink.arrivals[0].second->ecn_ce);
}

TEST(FusedLink, RapidFlapDoesNotWedgePipeline) {
  // The fused variant of the PR 1 wedge-window regression: an abort mid-
  // serialization must free the pipe immediately and neutralize the stale
  // head event, so traffic after a fast re-enable flows at once.
  World w(true);
  w.link->enqueue(make_data(1500));  // serializes during [0, 1200) ns
  w.sim.run_until(TimeNs{600});
  w.link->set_down(true);   // aborts mid-serialization
  w.link->set_down(false);  // immediate re-enable
  EXPECT_EQ(w.link->pipe_depth(), 0u);
  w.link->enqueue(make_data(1000));
  w.sim.run();
  ASSERT_EQ(w.sink.arrivals.size(), 1u);
  // New packet serializes during [600, 1400), arrives prop (1 us) later —
  // not at the aborted packet's old completion time.  The stale head event
  // (2200 ns) must not deliver anything.
  EXPECT_EQ(w.sink.arrivals[0].first, TimeNs{2400});
  EXPECT_EQ(w.link->drops(), 1);
  EXPECT_EQ(w.link->tx_bytes_cum(), 1000);
}

TEST(FusedLink, SetDownKeepsPacketsAlreadyOnTheWire) {
  // Packets past their serializer-end are propagating: like legacy
  // DeliverEvents they survive a set_down and still arrive.
  World w(true, 100_us);
  for (int i = 0; i < 3; ++i) w.link->enqueue(make_data(1500));
  w.sim.run_until(10_us);  // all serialized (3.6 us), none delivered
  w.link->set_down(true);
  w.link->enqueue(make_data(1500));  // dropped on arrival: link is down
  w.sim.run();
  ASSERT_EQ(w.sink.arrivals.size(), 3u);
  EXPECT_EQ(w.sink.arrivals[2].first, TimeNs{103'600});
  EXPECT_EQ(w.link->drops(), 1);
  EXPECT_EQ(w.link->pipe_depth(), 0u);
}

TEST(FusedLink, FlapMidPipelineDropsOnlyUnserializedSuffix) {
  // Mixed pipe at the moment of failure: one packet on the wire (kept), one
  // in virtual serialization plus one queued (both dropped) — exactly the
  // packets the legacy engine would have dropped.
  World w(true, 10_us);
  for (int i = 0; i < 3; ++i) w.link->enqueue(make_data(1500));  // ser-ends 1.2/2.4/3.6 us
  w.sim.run_until(TimeNs{1500});
  w.link->set_down(true);
  EXPECT_EQ(w.link->drops(), 2);
  EXPECT_EQ(w.link->pipe_depth(), 1u);  // the propagating packet
  w.link->set_down(false);
  w.link->enqueue(make_data(1000));  // serializes during [1500, 2300)
  w.sim.run();
  ASSERT_EQ(w.sink.arrivals.size(), 2u);
  EXPECT_EQ(w.sink.arrivals[0].first, TimeNs{11'200});  // survivor: 1.2 us + 10 us
  EXPECT_EQ(w.sink.arrivals[1].first, TimeNs{12'300});  // post-recovery packet
  EXPECT_EQ(w.link->tx_bytes_cum(), 1500 + 1000);
}

TEST(FusedLink, WireExitLinksUseThePipeAtTwoEventsPerHop) {
  // Pull sources, fault filters and flap-marked links commit to the same
  // pipe as a plain push link; their wire-exit event is the one extra event
  // per hop.  Long propagation keeps every packet in the pipe until it has
  // serialized, so the pipe depth shows what each link committed.
  constexpr std::uint64_t kPackets = 4;
  World plain(true, 100_us);
  for (std::uint64_t i = 0; i < kPackets; ++i) plain.link->enqueue(make_data(1000));
  EXPECT_EQ(plain.link->pipe_depth(), kPackets);
  plain.sim.run();
  EXPECT_EQ(plain.sink.arrivals.size(), kPackets);
  EXPECT_EQ(plain.sim.events_processed(), kPackets);

  World pulled(true, 100_us);
  std::uint64_t remaining = kPackets;
  pulled.link->set_source([&]() -> PacketPtr {
    if (remaining == 0) return nullptr;
    --remaining;
    return make_data(1000);
  });
  pulled.link->kick();
  EXPECT_EQ(pulled.link->pipe_depth(), 1u);  // one pull per idle wire
  pulled.sim.run_until(TimeNs{1000});        // mid-way through the second packet
  EXPECT_EQ(pulled.link->pipe_depth(), 1u);
  EXPECT_EQ(pulled.link->tx_bytes_cum(), 1000);
  pulled.sim.run();
  EXPECT_EQ(pulled.sink.arrivals.size(), kPackets);
  EXPECT_EQ(pulled.sim.events_processed(), 2 * kPackets);

  World filtered(true, 100_us);
  bool drop_next = false;
  filtered.link->set_fault_filter([&drop_next](const Packet&) { return drop_next; });
  for (std::uint64_t i = 0; i < kPackets; ++i) filtered.link->enqueue(make_data(1000));
  EXPECT_EQ(filtered.link->pipe_depth(), kPackets);
  filtered.sim.run();
  EXPECT_EQ(filtered.sink.arrivals.size(), kPackets);
  EXPECT_EQ(filtered.link->fault_drops(), 0);
  EXPECT_EQ(filtered.sim.events_processed(), 2 * kPackets);
  // A packet lost on the wire costs its wire-exit event only.
  drop_next = true;
  filtered.link->enqueue(make_data(1000));
  filtered.sim.run();
  EXPECT_EQ(filtered.link->fault_drops(), 1);
  EXPECT_EQ(filtered.sim.events_processed(), 2 * kPackets + 1);

  World flap_marked(true, 100_us);
  flap_marked.link->enable_wire_exit();
  for (std::uint64_t i = 0; i < kPackets; ++i) flap_marked.link->enqueue(make_data(1000));
  EXPECT_EQ(flap_marked.link->pipe_depth(), kPackets);
  flap_marked.sim.run();
  EXPECT_EQ(flap_marked.sink.arrivals.size(), kPackets);
  EXPECT_EQ(flap_marked.sim.events_processed(), 2 * kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(flap_marked.sink.arrivals[i].first, plain.sink.arrivals[i].first) << "packet " << i;
    EXPECT_EQ(filtered.sink.arrivals[i].first, plain.sink.arrivals[i].first) << "packet " << i;
  }
}

TEST(FusedLink, DefaultSimulatorFusesOneEventPerHop) {
  // A default-constructed simulator needs no setup for the fused path: the
  // burst fills the pipe behind one resident event, and the run retires
  // exactly one calendar event per packet hop.
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, LinkConfig{10_Gbps, 100_us, 1'000'000, -1, 0.95});
  for (int i = 0; i < 8; ++i) link.enqueue(make_data(1500));
  EXPECT_EQ(link.pipe_depth(), 8u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 8u);
  EXPECT_EQ(sink.arrivals[7].first, TimeNs{109'600});  // 8 x 1.2 us + 100 us
  EXPECT_EQ(sim.events_processed(), 8u);
  EXPECT_EQ(link.pipe_depth(), 0u);
}

TEST(FusedLink, ForeignReadsSettleByTheLinksOwnShardClock) {
  // Two sequential shards, 10 us windows: shard 0 runs each window before
  // shard 1.  A cut link homed on shard 1 takes a burst at 9 us (ser-ends
  // 10.2 .. 16.2 us) and one more packet at 15 us, which must queue behind
  // it.  A read from shard 0 at 17 us runs while shard 1's clock still stands
  // at 10 us: settling by the reader's clock would retire the whole burst and
  // let the late packet start at once.
  const auto run = [](bool read) {
    Simulator sim;
    sim.configure_shards(2, 10_us, ShardExec::kSequential);
    SinkNode sink(sim);
    Link link(sim, LinkId{0}, "l", &sink, LinkConfig{10_Gbps, 10_us, 1'000'000, -1, 0.95});
    link.set_cross_shard_dst(0);
    sim.at(TimeNs::zero(), [] {});  // anchors the window ladder at 0
    if (read) {
      sim.at(17_us, [&link] {
        EXPECT_EQ(link.tx_bytes_cum(), 0);
        EXPECT_EQ(link.queue_bytes(), 5 * 1500);
        EXPECT_EQ(link.tx_rate().bits_per_sec(), 0.0);
      });
    }
    {
      const auto scope = sim.scoped(1);
      sim.at(9_us, [&link] {
        for (int i = 0; i < 6; ++i) link.enqueue(make_data(1500));
      });
      sim.at(15_us, [&link] { link.enqueue(make_data(1500)); });
    }
    sim.run();
    std::vector<TimeNs> arrivals;
    for (const auto& [at, pkt] : sink.arrivals) arrivals.push_back(at);
    return arrivals;
  };
  const std::vector<TimeNs> quiet = run(false);
  ASSERT_EQ(quiet.size(), 7u);
  EXPECT_EQ(quiet.back(), TimeNs{27'400});  // behind the burst: 16.2 + 1.2 + 10 us
  EXPECT_EQ(run(true), quiet);
}

/// What a link exposes over one scripted run: arrivals plus telemetry
/// sampled at fixed instants.
struct PinTrace {
  std::vector<std::pair<TimeNs, std::int32_t>> arrivals;
  std::vector<std::int64_t> tx_bytes;
  std::vector<std::int64_t> queue_bytes;
  std::int64_t drops = 0;
  bool operator==(const PinTrace&) const = default;
};

/// Five MTUs admitted at t=0 into a 6 KB queue (a sixth tail-drops; ser-ends
/// 1.2 .. 6.0 us on a 10 us link), a second burst at 3 us that partly
/// tail-drops, and optionally an outage over [4, 4.5) us followed by one more
/// packet.  The link gets wire-exit events before any traffic (`pin_at` < 0)
/// or at `pin_at`, with whatever the pipe holds at that moment.
PinTrace pin_scenario(TimeNs pin_at, bool flap) {
  World w(true);
  w.set_link(LinkConfig{10_Gbps, 10_us, 6000, -1, 0.95});
  if (pin_at < TimeNs::zero()) w.link->enable_wire_exit();
  PinTrace out;
  const auto sample = [&](TimeNs at) {
    w.sim.run_until(at);
    out.tx_bytes.push_back(w.link->tx_bytes_cum());
    out.queue_bytes.push_back(w.link->queue_bytes());
  };
  for (int i = 0; i < 6; ++i) w.link->enqueue(make_data(1500));
  if (pin_at >= TimeNs::zero()) {
    w.sim.run_until(pin_at);
    w.link->enable_wire_exit();
    // Packets past their serializer end become delivery events; the pipe
    // keeps the ones still serializing or queued (all five at 600 ns, three
    // at 3 us).
    EXPECT_EQ(w.link->pipe_depth(), pin_at < TimeNs{1200} ? 5u : 3u);
  }
  sample(TimeNs{3000});
  for (int i = 0; i < 5; ++i) w.link->enqueue(make_data(1500));
  sample(TimeNs{3600});
  if (flap) {
    sample(TimeNs{4000});
    w.link->set_down(true);
    sample(TimeNs{4500});
    w.link->set_down(false);
    w.link->enqueue(make_data(700));
  }
  for (const TimeNs at : {TimeNs{5000}, TimeNs{7200}, TimeNs{20'000}}) sample(at);
  w.sim.run();
  for (const auto& [at, pkt] : w.sink.arrivals) out.arrivals.push_back({at, pkt->size_bytes});
  out.drops = w.link->drops();
  EXPECT_EQ(w.link->pipe_depth(), 0u);
  return out;
}

TEST(FusedLink, PinMidPipelineMatchesPinBeforeTraffic) {
  // Enabling wire-exit events on a link with traffic (the fault plane arming
  // mid-run): packets on the wire still arrive, the one being serialized
  // exits at its own time, and the rest keep their places.  At 600 ns the
  // head itself is mid-serialization; at 3 us two packets propagate, one
  // serializes and two wait.  The outage variant drops the serializing and
  // queued packets while packets are still on the wire.
  for (const bool flap : {false, true}) {
    const PinTrace ref = pin_scenario(TimeNs{-1}, flap);
    ASSERT_EQ(ref.arrivals.size(), flap ? 4u : 7u) << "flap=" << flap;
    EXPECT_EQ(ref.drops, flap ? 8 : 4) << "flap=" << flap;
    for (const TimeNs pin_at : {TimeNs{600}, TimeNs{3000}}) {
      EXPECT_EQ(pin_scenario(pin_at, flap), ref) << "pin_at=" << pin_at.ns() << " flap=" << flap;
    }
  }
}

}  // namespace
}  // namespace ufab::sim
