#include "src/telemetry/int_codec.hpp"

#include <algorithm>
#include <cmath>

namespace ufab::telemetry {

namespace {
constexpr double kSpeedsGbps[16] = {1, 10, 25, 40, 50, 100, 200, 400,
                                    0, 0,  0,  0,  0,  0,   0,   0};

std::uint16_t clamp_u16(double v) {
  return static_cast<std::uint16_t>(std::clamp(v, 0.0, 65535.0));
}
}  // namespace

int IntCodec::speed_class(Bandwidth capacity) {
  const double gbps = capacity.gbit_per_sec();
  int best = 0;
  double best_err = 1e300;
  for (int i = 0; i < 8; ++i) {
    const double err = std::abs(kSpeedsGbps[i] - gbps);
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  return best;
}

Bandwidth IntCodec::class_speed(int cls) {
  return Bandwidth::gbps(kSpeedsGbps[std::clamp(cls, 0, 7)]);
}

EncodedIntRecord IntCodec::encode(const sim::IntRecord& rec) {
  EncodedIntRecord enc{};
  // W_l is carried as a rate (bytes/s on the host side); encode in bps units.
  enc.window = clamp_u16(std::round(rec.window_total * 8.0 / kRateUnitBps));
  enc.phi = clamp_u16(std::round(rec.phi_total / kRateUnitBps));
  const double cap = rec.capacity.bits_per_sec();
  const double frac = cap > 0.0 ? rec.tx_rate_hint.bits_per_sec() / cap : 0.0;
  enc.tx_frac = clamp_u16(std::round(std::clamp(frac, 0.0, 1.0) * 65535.0));
  const auto q_units = static_cast<std::uint16_t>(std::min<std::int64_t>(
      4095, static_cast<std::int64_t>(
                std::ceil(static_cast<double>(rec.queue_bytes) / kQueueUnitBytes))));
  enc.q_and_c = static_cast<std::uint16_t>(
      (q_units << 4) | static_cast<std::uint16_t>(speed_class(rec.capacity) & 0xf));
  return enc;
}

sim::IntRecord IntCodec::decode(const EncodedIntRecord& enc, LinkId link, TimeNs stamp) {
  sim::IntRecord rec{};
  rec.link = link;
  rec.stamp = stamp;
  rec.window_total = static_cast<double>(enc.window) * kRateUnitBps / 8.0;  // bytes/s
  rec.phi_total = static_cast<double>(enc.phi) * kRateUnitBps;
  rec.capacity = class_speed(enc.q_and_c & 0xf);
  rec.tx_rate_hint = Bandwidth::bps(rec.capacity.bits_per_sec() *
                                    static_cast<double>(enc.tx_frac) / 65535.0);
  rec.queue_bytes =
      static_cast<std::int64_t>((enc.q_and_c >> 4) & 0xfff) * static_cast<std::int64_t>(1024);
  // Not representable on the wire: the edge must use tx_rate_hint.
  rec.tx_bytes_cum = 0;
  return rec;
}

void IntCodec::quantize(sim::IntRecord& rec) {
  rec = decode(encode(rec), rec.link, rec.stamp);
}

}  // namespace ufab::telemetry
