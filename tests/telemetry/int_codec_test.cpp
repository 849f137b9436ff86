// Tests for the Appendix-G INT wire codec, including an end-to-end check
// that uFAB still converges when telemetry is wire-quantized.

#include <gtest/gtest.h>

#include "src/harness/fabric.hpp"
#include "src/telemetry/int_codec.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"

namespace ufab::telemetry {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

sim::IntRecord sample_record() {
  sim::IntRecord rec;
  rec.link = LinkId{3};
  rec.phi_total = 6.4e9;              // 6.4 Gbps of tokens
  rec.window_total = 1.2e9 / 8.0;     // 1.2 Gbps claimed, in bytes/s
  rec.tx_rate_hint = Bandwidth::gbps(7.5);
  rec.queue_bytes = 35'000;
  rec.capacity = Bandwidth::gbps(10);
  rec.stamp = 5_us;
  rec.tx_bytes_cum = 123456;
  return rec;
}

TEST(IntCodec, RoundTripWithinUnitError) {
  const auto rec = sample_record();
  const auto enc = IntCodec::encode(rec);
  const auto dec = IntCodec::decode(enc, rec.link, rec.stamp);
  EXPECT_NEAR(dec.phi_total, rec.phi_total, IntCodec::kRateUnitBps);
  EXPECT_NEAR(dec.window_total * 8.0, rec.window_total * 8.0, IntCodec::kRateUnitBps);
  EXPECT_NEAR(dec.tx_rate_hint.bits_per_sec(), rec.tx_rate_hint.bits_per_sec(), 1e10 / 65535.0 * 2);
  // Queue rounds *up* to the next KB (never hides a standing queue).
  EXPECT_GE(dec.queue_bytes, rec.queue_bytes);
  EXPECT_LE(dec.queue_bytes, rec.queue_bytes + 1024);
  EXPECT_DOUBLE_EQ(dec.capacity.gbit_per_sec(), 10.0);
  // The cumulative counter is not on the wire.
  EXPECT_EQ(dec.tx_bytes_cum, 0);
}

TEST(IntCodec, SpeedClassesCoverCommonLinkRates) {
  for (const double g : {1.0, 10.0, 25.0, 40.0, 50.0, 100.0, 200.0, 400.0}) {
    const int cls = IntCodec::speed_class(Bandwidth::gbps(g));
    EXPECT_DOUBLE_EQ(IntCodec::class_speed(cls).gbit_per_sec(), g);
  }
  // Off-grid capacities snap to the nearest class.
  EXPECT_DOUBLE_EQ(
      IntCodec::class_speed(IntCodec::speed_class(Bandwidth::gbps(95))).gbit_per_sec(), 100.0);
}

TEST(IntCodec, SaturatesInsteadOfWrapping) {
  sim::IntRecord rec = sample_record();
  rec.phi_total = 1e12;          // 1 Tbps of tokens
  rec.queue_bytes = 100'000'000; // 100 MB queue
  const auto enc = IntCodec::encode(rec);
  const auto dec = IntCodec::decode(enc, rec.link, rec.stamp);
  EXPECT_DOUBLE_EQ(dec.phi_total, 65535.0 * IntCodec::kRateUnitBps);
  EXPECT_EQ(dec.queue_bytes, 4095 * 1024);
}

TEST(IntCodec, ZeroRecordStaysZero) {
  sim::IntRecord rec{};
  rec.capacity = Bandwidth::gbps(10);
  IntCodec::quantize(rec);
  EXPECT_DOUBLE_EQ(rec.phi_total, 0.0);
  EXPECT_DOUBLE_EQ(rec.window_total, 0.0);
  EXPECT_EQ(rec.queue_bytes, 0);
}

TEST(IntCodec, UfabConvergesOnQuantizedTelemetry) {
  // End to end: two tenants share a trunk with wire-quantized INT; the 2:1
  // proportional split must survive quantization.
  harness::Fabric fab([](sim::Simulator& s) { return topo::make_dumbbell(s, 2, 2); }, 11);
  CoreConfig core;
  core.clean_period = 1_s;
  core.quantize_int = true;
  fab.instrument_cores(core);
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const HostId host{static_cast<std::int32_t>(h)};
    fab.adopt_stack(host, std::make_unique<edge::EdgeAgent>(
                              fab.net(), fab.vms(), host, edge::EdgeConfig{},
                              transport::TransportOptions{}, fab.rng().fork(h)));
  }
  fab.install_pair_metering(1_ms);
  auto& vms = fab.vms();
  const TenantId a = vms.add_tenant("A", 4_Gbps);
  const TenantId b = vms.add_tenant("B", 2_Gbps);
  const VmPairId pa{vms.add_vm(a, HostId{0}), vms.add_vm(a, HostId{2})};
  const VmPairId pb{vms.add_vm(b, HostId{1}), vms.add_vm(b, HostId{3})};
  fab.keep_backlogged(pa, 0_ms, 40_ms);
  fab.keep_backlogged(pb, 0_ms, 40_ms);
  fab.sim().run_until(40_ms);

  const auto rate = [&](VmPairId p) {
    return fab.pair_meter(p)->trailing_rate(40_ms, 20).gbit_per_sec();
  };
  EXPECT_NEAR(rate(pa) / rate(pb), 2.0, 0.4);
  EXPECT_GT(rate(pa) + rate(pb), 8.0);
  for (const auto* l : fab.net().links()) EXPECT_EQ(l->drops(), 0) << l->name();
}

}  // namespace
}  // namespace ufab::telemetry
