// Unit tests for Link: serialization, queueing, ECN, drops, rate estimate.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/host.hpp"
#include "src/sim/link.hpp"
#include "src/sim/node.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

/// Terminal node that records arrivals.
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
  auto p = Packet::make(PacketKind::kData, VmPairId{VmId{0}, VmId{1}}, TenantId{0}, HostId{0},
                        HostId{1}, bytes);
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 2_us, 1'000'000, -1, 0.95});
  link.enqueue(make_data(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1500 B @10 Gbps = 1.2 us serialize + 2 us propagate.
  EXPECT_EQ(sink.arrivals[0].first, TimeNs{3200});
  EXPECT_EQ(link.tx_bytes_cum(), 1500);
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  link.enqueue(make_data(1500));
  link.enqueue(make_data(1500));
  link.enqueue(make_data(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first.ns(), 1200);
  EXPECT_EQ(sink.arrivals[1].first.ns(), 2400);
  EXPECT_EQ(sink.arrivals[2].first.ns(), 3600);
}

TEST(Link, TailDropsWhenQueueFull) {
  Simulator sim;
  SinkNode sink(sim);
  // Queue limit fits exactly two MTUs beyond the in-service packet.
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 3000, -1, 0.95});
  for (int i = 0; i < 5; ++i) link.enqueue(make_data(1500));
  sim.run();
  // First starts transmitting immediately (leaves queue), two fit, two drop.
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(link.drops(), 2);
}

TEST(Link, EcnMarksAboveThreshold) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, 2000, 0.95});
  for (int i = 0; i < 4; ++i) link.enqueue(make_data(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  // Packet 0: queue empty on arrival. Packet 1: queue 0 after pkt0 started
  // transmitting... marks appear once standing queue exceeds 2000 B.
  int marked = 0;
  for (auto& [t, p] : sink.arrivals) marked += p->ecn_ce ? 1 : 0;
  EXPECT_GE(marked, 1);
  EXPECT_FALSE(sink.arrivals[0].second->ecn_ce);
}

TEST(Link, PullSourceDrainedWhenIdle) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  int remaining = 3;
  link.set_source([&]() -> PacketPtr {
    if (remaining == 0) return nullptr;
    --remaining;
    return make_data(1000);
  });
  link.kick();
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(remaining, 0);
}

TEST(Link, PushQueueHasPriorityOverPullSource) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  bool pulled = false;
  link.set_source([&]() -> PacketPtr {
    if (pulled) return nullptr;
    pulled = true;
    return make_data(1000);
  });
  auto control = make_data(64);
  control->kind = PacketKind::kAck;
  link.enqueue(std::move(control));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].second->kind, PacketKind::kAck);
  EXPECT_EQ(sink.arrivals[1].second->kind, PacketKind::kData);
}

TEST(Link, TxRateEstimateTracksLoad) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 10'000'000, -1, 0.95});
  // Saturate for 100 us: 10 Gbps = 125000 bytes per 100 us.
  for (int i = 0; i < 80; ++i) link.enqueue(make_data(1500));
  sim.run_until(96_us);
  EXPECT_NEAR(link.tx_rate(50_us).gbit_per_sec(), 10.0, 0.5);
}

TEST(Link, TxRateZeroWhenIdle) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 10'000'000, -1, 0.95});
  EXPECT_DOUBLE_EQ(link.tx_rate().bits_per_sec(), 0.0);
}

TEST(Link, FailureDropsEverything) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 1_us, 1'000'000, -1, 0.95});
  link.enqueue(make_data(1500));
  link.enqueue(make_data(1500));
  link.set_down(true);
  link.enqueue(make_data(1500));  // dropped on arrival
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(link.drops(), 3);
  // Recovery: new packets flow again.
  link.set_down(false);
  link.enqueue(make_data(1500));
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST(Link, ReentrantEnqueueFromPullSourceIsNotLost) {
  // Regression: a source callback that re-enters enqueue() (the transport's
  // probe cadence fires while the NIC pulls the next data packet) once had
  // its control packet put in flight by a nested dequeue and then silently
  // overwritten by the pulled data packet.  Both must reach the wire.
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  int pulls = 0;
  link.set_source([&]() -> PacketPtr {
    if (pulls >= 2) return nullptr;
    ++pulls;
    // Re-enter while the link is mid-pull, as a host pushing a probe does.
    auto probe = Packet::make(PacketKind::kProbe, VmPairId{VmId{0}, VmId{1}}, TenantId{0},
                              HostId{0}, HostId{1}, 64);
    link.enqueue(std::move(probe));
    return make_data(1500);
  });
  link.kick();
  sim.run();
  // Both generations of (probe, data) must arrive: nothing destroyed.
  ASSERT_EQ(sink.arrivals.size(), 4u);
  int probes = 0;
  int datas = 0;
  for (const auto& [when, pkt] : sink.arrivals) {
    (pkt->kind == PacketKind::kProbe ? probes : datas)++;
  }
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(datas, 2);
  EXPECT_EQ(link.tx_bytes_cum(), 2 * 1500 + 2 * 64);
}

TEST(Link, RapidFlapDoesNotWedgeSerializer) {
  // Regression: set_down(true) once dropped the packet being serialized but
  // left the wire marked busy, so traffic after an immediate re-enable
  // waited for the stale serializer event — a wedge window as long as the
  // aborted packet's remaining serialization time.
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  link.enqueue(make_data(1500));  // serializes during [0, 1200) ns
  sim.run_until(TimeNs{600});
  link.set_down(true);   // aborts mid-serialization
  link.set_down(false);  // immediate re-enable
  link.enqueue(make_data(1000));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // The new packet starts serializing at 600 ns, not at the aborted
  // packet's old completion time (1200 ns): 600 + 800 = 1400 ns.
  EXPECT_EQ(sink.arrivals[0].first, TimeNs{1400});
  EXPECT_EQ(link.drops(), 1);
}

TEST(Link, StaleSerializerEventIsNeutralizedAcrossFlaps) {
  // The aborted packet's completion event must not double-complete the
  // packet that started after re-enable.
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  link.enqueue(make_data(1500));
  sim.run_until(TimeNs{100});
  link.set_down(true);
  link.set_down(false);
  link.enqueue(make_data(1500));  // starts at 100, finishes at 1300
  // The stale event fires at 1200; it must not deliver or free the wire.
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, TimeNs{1300});
  EXPECT_EQ(link.tx_bytes_cum(), 1500);
  // Redundant set_down calls are idempotent (no double drop counting).
  link.set_down(false);
  EXPECT_EQ(link.drops(), 1);
}

TEST(Link, FaultFilterDropsOnTheWire) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  int seen = 0;
  link.set_fault_filter([&seen](const Packet&) { return ++seen % 2 == 0; });
  for (int i = 0; i < 4; ++i) link.enqueue(make_data(1000));
  sim.run();
  // Every packet consumed wire time (cumulative TX counts all four), but
  // every second one was lost after serializing.
  EXPECT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(link.fault_drops(), 2);
  EXPECT_EQ(link.drops(), 0);
  EXPECT_EQ(link.tx_bytes_cum(), 4000);
}

TEST(Link, MaxQueueTracksHighWaterMark) {
  Simulator sim;
  SinkNode sink(sim);
  Link link(sim, LinkId{0}, "l", &sink, {10_Gbps, 0_us, 1'000'000, -1, 0.95});
  for (int i = 0; i < 4; ++i) link.enqueue(make_data(1500));
  // First packet starts service immediately; three remain queued.
  EXPECT_EQ(link.max_queue_bytes(), 4500);
  sim.run();
  EXPECT_EQ(link.queue_bytes(), 0);
  link.reset_max_queue();
  EXPECT_EQ(link.max_queue_bytes(), 0);
}

}  // namespace
}  // namespace ufab::sim
