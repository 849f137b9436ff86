// Unit tests for the shared transport framework: packetization, ACK
// accounting, retransmission, reassembly, loopback, pacing and scheduling.
#include <gtest/gtest.h>

#include "src/harness/fabric.hpp"
#include "src/topo/builders.hpp"
#include "src/transport/transport.hpp"

namespace ufab::transport {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;
using harness::Fabric;

/// Minimal concrete transport: fixed window, no pacing.
class WindowStack : public TransportStack {
 public:
  using TransportStack::TransportStack;
  double window_bytes = 30'000.0;

 protected:
  bool can_send(const Connection& conn) const override {
    return static_cast<double>(conn.inflight_bytes) < window_bytes;
  }
};

/// Rate-paced transport for pacing tests.
class PacedStack : public TransportStack {
 public:
  using TransportStack::TransportStack;
  Bandwidth rate = Bandwidth::gbps(1);

 protected:
  TimeNs earliest_send(const Connection& conn) const override {
    auto it = next_at_.find(conn.pair.key());
    return it == next_at_.end() ? TimeNs::zero() : it->second;
  }
  void on_data_sent(Connection& conn, const sim::Packet& pkt) override {
    const TimeNs base = std::max(earliest_send(conn), simulator().now());
    next_at_[conn.pair.key()] = base + rate.tx_time(pkt.size_bytes);
  }

 private:
  std::unordered_map<std::uint64_t, TimeNs> next_at_;
};

struct World {
  Fabric fab;
  explicit World(std::uint64_t seed = 3)
      : fab([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); }, seed) {
    for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
      const HostId host{static_cast<std::int32_t>(h)};
      fab.adopt_stack(host, std::make_unique<WindowStack>(fab.net(), fab.vms(), host,
                                                          TransportOptions{},
                                                          fab.rng().fork(h)));
    }
  }
  VmPairId make_pair(Bandwidth g = Bandwidth::gbps(1), HostId a = HostId{0},
                     HostId b = HostId{2}) {
    const TenantId t = fab.vms().add_tenant("t" + std::to_string(fab.vms().tenant_count()), g);
    return VmPairId{fab.vms().add_vm(t, a), fab.vms().add_vm(t, b)};
  }
};

TEST(Transport, DeliversAMessageIntact) {
  World w;
  const VmPairId pair = w.make_pair();
  transport::Message delivered;
  TimeNs at;
  w.fab.add_delivery_listener([&](const Message& m, TimeNs t) {
    delivered = m;
    at = t;
  });
  const std::uint64_t id = w.fab.send(pair, 100'000, /*user_tag=*/55);
  w.fab.sim().run_until(10_ms);
  EXPECT_EQ(delivered.id, id);
  EXPECT_EQ(delivered.size_bytes, 100'000);
  EXPECT_EQ(delivered.user_tag, 55u);
  EXPECT_GT(at.ns(), 0);
}

TEST(Transport, SenderCompletionFiresWhenFullyAcked) {
  World w;
  const VmPairId pair = w.make_pair();
  auto& stack = w.fab.stack_at(HostId{0});
  bool sender_done = false;
  stack.set_sent_callback([&](const Message&, TimeNs) { sender_done = true; });
  w.fab.send(pair, 50'000);
  w.fab.sim().run_until(10_ms);
  EXPECT_TRUE(sender_done);
  Connection* conn = stack.find_connection(pair);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->inflight_bytes, 0);
  EXPECT_TRUE(conn->outstanding.empty());
  EXPECT_TRUE(conn->pending_msgs.empty());
}

TEST(Transport, MessagesAreDeliveredInOrderPerPair) {
  World w;
  const VmPairId pair = w.make_pair();
  std::vector<std::uint64_t> order;
  w.fab.add_delivery_listener([&](const Message& m, TimeNs) { order.push_back(m.user_tag); });
  for (std::uint64_t i = 1; i <= 5; ++i) w.fab.send(pair, 20'000, i);
  w.fab.sim().run_until(20_ms);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Transport, RetransmissionRecoversFromLoss) {
  World w;
  const VmPairId pair = w.make_pair();
  int delivered = 0;
  w.fab.add_delivery_listener([&](const Message&, TimeNs) { ++delivered; });
  // Kill the trunk briefly so in-flight packets vanish.
  sim::Link* trunk = nullptr;
  for (sim::Link* l : w.fab.net().links()) {
    if (l->name() == "ToR-L->ToR-R") trunk = l;
  }
  ASSERT_NE(trunk, nullptr);
  w.fab.send(pair, 200'000);
  w.fab.sim().at(40_us, [&] { trunk->set_down(true); });
  w.fab.sim().at(200_us, [&] { trunk->set_down(false); });
  w.fab.sim().run_until(30_ms);
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(trunk->drops(), 0);
  const auto& stack = w.fab.stack_at(HostId{0});
  EXPECT_GT(stack.retransmits(), 0);
}

TEST(Transport, DuplicateDataDoesNotDoubleDeliver) {
  // A late ACK racing a timeout causes a retransmit of received data; the
  // receiver's chunk bitmap must ignore the duplicate.
  World w;
  const VmPairId pair = w.make_pair();
  int delivered = 0;
  w.fab.add_delivery_listener([&](const Message&, TimeNs) { ++delivered; });
  // Drop only ACKs for a while by bringing the reverse trunk down.
  sim::Link* rev = nullptr;
  for (sim::Link* l : w.fab.net().links()) {
    if (l->name() == "ToR-R->ToR-L") rev = l;
  }
  ASSERT_NE(rev, nullptr);
  w.fab.send(pair, 100'000);
  w.fab.sim().at(30_us, [&] { rev->set_down(true); });
  w.fab.sim().at(600_us, [&] { rev->set_down(false); });
  w.fab.sim().run_until(40_ms);
  EXPECT_EQ(delivered, 1);
}

TEST(Transport, LoopbackDeliveryForSameHostPairs) {
  World w;
  // Both VMs on host 0.
  const TenantId t = w.fab.vms().add_tenant("local", 1_Gbps);
  const VmPairId pair{w.fab.vms().add_vm(t, HostId{0}), w.fab.vms().add_vm(t, HostId{0})};
  int delivered = 0;
  bool sent = false;
  w.fab.add_delivery_listener([&](const Message&, TimeNs) { ++delivered; });
  w.fab.stack_at(HostId{0}).set_sent_callback([&](const Message&, TimeNs) { sent = true; });
  w.fab.send(pair, 1'000'000);
  w.fab.sim().run_until(1_ms);
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(sent);
  // Nothing touched the fabric.
  for (const auto* l : w.fab.net().links()) EXPECT_EQ(l->tx_bytes_cum(), 0) << l->name();
}

TEST(Transport, WindowLimitsInflight) {
  World w;
  const VmPairId pair = w.make_pair();
  auto& stack = static_cast<WindowStack&>(w.fab.stack_at(HostId{0}));
  stack.window_bytes = 4'500.0;  // three packets
  w.fab.send(pair, 1'000'000);
  w.fab.sim().run_until(100_us);
  Connection* conn = stack.find_connection(pair);
  ASSERT_NE(conn, nullptr);
  EXPECT_LE(conn->inflight_bytes, 4'500 + 1'500);
  // Throughput is window-bound: w / RTT, far below line rate.
  w.fab.sim().run_until(20_ms);
  const double rate_gbps =
      static_cast<double>(conn->bytes_sent_total) * 8.0 / 20e6 / 1000.0;
  EXPECT_LT(rate_gbps, 4.0);
}

TEST(Transport, PacingSpacesPackets) {
  Fabric fab([](sim::Simulator& s) { return topo::make_dumbbell(s, 1, 1); }, 5);
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const HostId host{static_cast<std::int32_t>(h)};
    fab.adopt_stack(host, std::make_unique<PacedStack>(fab.net(), fab.vms(), host,
                                                       TransportOptions{}, fab.rng().fork(h)));
  }
  fab.install_pair_metering(1_ms);
  const TenantId t = fab.vms().add_tenant("p", 1_Gbps);
  const VmPairId pair{fab.vms().add_vm(t, HostId{0}), fab.vms().add_vm(t, HostId{1})};
  auto& stack = static_cast<PacedStack&>(fab.stack_at(HostId{0}));
  stack.rate = Bandwidth::gbps(2);
  fab.keep_backlogged(pair, 0_ms, 20_ms);
  fab.sim().run_until(20_ms);
  RateMeter* m = fab.pair_meter(pair);
  ASSERT_NE(m, nullptr);
  EXPECT_NEAR(m->trailing_rate(20_ms, 10).gbit_per_sec(), 2.0, 0.2);
}

TEST(Transport, RoundRobinSharesNicBetweenConnections) {
  World w;
  const VmPairId p1 = w.make_pair(Bandwidth::gbps(1), HostId{0}, HostId{2});
  const VmPairId p2 = w.make_pair(Bandwidth::gbps(1), HostId{0}, HostId{3});
  w.fab.install_pair_metering(1_ms);
  w.fab.keep_backlogged(p1, 0_ms, 20_ms);
  w.fab.keep_backlogged(p2, 0_ms, 20_ms);
  w.fab.sim().run_until(20_ms);
  auto& stack = w.fab.stack_at(HostId{0});
  Connection* c1 = stack.find_connection(p1);
  Connection* c2 = stack.find_connection(p2);
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  const double ratio = static_cast<double>(c1->bytes_sent_total) /
                       static_cast<double>(c2->bytes_sent_total);
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(Transport, QueuedBytesAccounting) {
  World w;
  const VmPairId pair = w.make_pair();
  auto& stack = static_cast<WindowStack&>(w.fab.stack_at(HostId{0}));
  stack.window_bytes = 0.0;  // block sending entirely
  w.fab.send(pair, 10'000);
  w.fab.send(pair, 20'000);
  Connection* conn = stack.find_connection(pair);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->queued_bytes(), 30'000);
  EXPECT_TRUE(conn->has_backlog());
  EXPECT_EQ(conn->next_wire_size(1440, sim::kDataHeaderBytes), 1440 + sim::kDataHeaderBytes);
}

TEST(Transport, RttSamplesExcludeRetransmits) {
  World w;
  const VmPairId pair = w.make_pair();
  sim::Link* trunk = nullptr;
  for (sim::Link* l : w.fab.net().links()) {
    if (l->name() == "ToR-L->ToR-R") trunk = l;
  }
  w.fab.send(pair, 150'000);
  w.fab.sim().at(30_us, [&] { trunk->set_down(true); });
  w.fab.sim().at(400_us, [&] { trunk->set_down(false); });
  w.fab.sim().run_until(30_ms);
  // All recorded RTTs are sane (no timeout-length samples from rtx).
  const auto& rtt = w.fab.stack_at(HostId{0}).rtt_samples_us();
  ASSERT_FALSE(rtt.empty());
  EXPECT_LT(rtt.max(), 1000.0);
}

/// The link named `name`, or nullptr.
sim::Link* find_link(Fabric& fab, const std::string& name) {
  for (sim::Link* l : fab.net().links()) {
    if (l->name() == name) return l;
  }
  return nullptr;
}

/// Loses every ACK of `pair` on the dumbbell's reverse trunk, so each copy of
/// its data times out.
void drop_acks_of(Fabric& fab, VmPairId pair) {
  sim::Link* rev = find_link(fab, "ToR-R->ToR-L");
  ASSERT_NE(rev, nullptr);
  rev->set_fault_filter([pair](const sim::Packet& p) {
    return p.kind == sim::PacketKind::kAck && p.pair == pair;
  });
}

TEST(Transport, RetransmitFiresOnFirstTickAfterRto) {
  // RTO sweeps land only on the absolute 50 us grid and only where a deadline
  // needs one, so every resend of a never-acked packet happens at the first
  // grid tick strictly past its RTO.
  World w;
  const VmPairId pair = w.make_pair();
  drop_acks_of(w.fab, pair);
  std::vector<std::int64_t> sent_at;  // per copy that reached the receiver
  w.fab.stack_at(HostId{2}).add_rx_tap(
      [&sent_at](const sim::Packet& p) { sent_at.push_back(p.sent_at.ns()); });
  w.fab.sim().at(TimeNs{13'337}, [&w, pair] { w.fab.send(pair, 1'000); });
  w.fab.sim().run_until(3_ms);

  const Connection* conn = w.fab.stack_at(HostId{0}).find_connection(pair);
  ASSERT_NE(conn, nullptr);
  const std::int64_t rto = conn->rto.ns();
  ASSERT_EQ(rto, conn->base_rtt.scaled(TransportOptions{}.rto_rtts).ns());
  ASSERT_GE(sent_at.size(), 3u);
  EXPECT_EQ(sent_at[0], 13'337);
  for (std::size_t i = 1; i < sent_at.size(); ++i) {
    const std::int64_t wait = sent_at[i] - sent_at[i - 1];
    EXPECT_EQ(sent_at[i] % 50'000, 0) << "copy " << i << " at " << sent_at[i];
    EXPECT_GT(wait, rto) << "copy " << i;
    EXPECT_LE(wait, rto + 50'000) << "copy " << i;
  }
}

TEST(Transport, IdleRtoWaitSchedulesNoPolling) {
  // One packet whose ACK is lost, then silence: waiting out a long RTO costs
  // a pending sweep or two, not a wake-up every 50 us.
  Fabric fab([](sim::Simulator& s) { return topo::make_dumbbell(s, 1, 1); }, 9);
  TransportOptions opts;
  opts.rto_rtts = 2'000.0;
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const HostId host{static_cast<std::int32_t>(h)};
    fab.adopt_stack(host, std::make_unique<WindowStack>(fab.net(), fab.vms(), host, opts,
                                                        fab.rng().fork(h)));
  }
  const TenantId t = fab.vms().add_tenant("idle", 1_Gbps);
  const VmPairId pair{fab.vms().add_vm(t, HostId{0}), fab.vms().add_vm(t, HostId{1})};
  drop_acks_of(fab, pair);
  fab.send(pair, 1'000);
  const Connection* conn = fab.stack_at(HostId{0}).find_connection(pair);
  ASSERT_NE(conn, nullptr);
  const TimeNs rto = conn->rto;
  ASSERT_GT(rto.ns() / 50'000, 100) << "the wait must span many sweep ticks";

  fab.sim().run_until(1_ms);  // the packet is delivered and its ACK lost
  const std::uint64_t before = fab.sim().events_processed();
  fab.sim().run_until(rto);  // sent at 0: still one tick short of expiry
  EXPECT_LE(fab.sim().events_processed() - before, 2u)
      << "a free-running sweep would have fired " << (rto.ns() - 1'000'000) / 50'000 << " times";
  EXPECT_EQ(fab.stack_at(HostId{0}).retransmits(), 0);
  fab.sim().run_until(rto + 50_us);
  EXPECT_EQ(fab.stack_at(HostId{0}).retransmits(), 1);
}

}  // namespace
}  // namespace ufab::transport
