// INT wire-format codec (Appendix G).
//
// On the wire each per-hop INT record is 64 bits:
//   W_l  (16) — total claimed rate, 8 Mbps units
//   Φ_l  (16) — total subscribed tokens (bps), 8 Mbps units
//   tx_l (16) — link TX rate as a fraction of capacity (1/65535 units)
//   q_l  (12) — queue depth, 1 KB units (saturating)
//   C_l   (4) — egress speed class (1/10/25/40/50/100/200/400 Gbps)
//
// The simulator normally carries full-precision telemetry; enabling the
// codec in CoreConfig quantizes every record exactly as the hardware wire
// format would, so experiments can measure what the 64-bit encoding costs.
// (The HPCC-style cumulative TX byte counter is not part of the paper's
// format; with the codec enabled the edge falls back to the switch's
// quantized rate estimate.)
#pragma once

#include <cstdint>

#include "src/sim/packet.hpp"

namespace ufab::telemetry {

/// The 64-bit on-wire representation of one hop's INT record.
struct EncodedIntRecord {
  std::uint16_t window;    ///< W_l in 8 Mbps units.
  std::uint16_t phi;       ///< Phi_l in 8 Mbps units.
  std::uint16_t tx_frac;   ///< tx / capacity in 1/65535 units.
  std::uint16_t q_and_c;   ///< [q:12 (1 KB units, saturating) | speed class:4].
};

class IntCodec {
 public:
  /// Quantizes `rec` into the wire format. LinkId and timestamp are carried
  /// by the simulator out of band (on hardware they are implicit in hop
  /// order); the cumulative byte counter is dropped.
  static EncodedIntRecord encode(const sim::IntRecord& rec);

  /// Expands a wire record back into an IntRecord (lossy). `link` and
  /// `stamp` are re-attached from simulator metadata.
  static sim::IntRecord decode(const EncodedIntRecord& enc, LinkId link, TimeNs stamp);

  /// Applies an encode/decode round trip in place (what a probe would carry).
  static void quantize(sim::IntRecord& rec);

  /// Nearest representable speed class for a physical capacity.
  static int speed_class(Bandwidth capacity);
  static Bandwidth class_speed(int cls);

  /// Quantization units.
  static constexpr double kRateUnitBps = 8e6;   ///< 8 Mbps per code point.
  static constexpr double kQueueUnitBytes = 1024.0;
  static constexpr std::int64_t kQueueMaxBytes = 4095 * 1024;
};

}  // namespace ufab::telemetry
