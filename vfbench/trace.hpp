// Spans at the library's public layer boundaries, recorded from outside it.
//
// A traced run wraps the calls into each layer with a Span: the transport
// stack (sim::HostStack::on_packet / pull, via a decorator installed with
// Host::set_stack), uFAB-C (sim::EgressProcessor::on_probe_egress, via a
// decorator per switch port) and metering (a pair of rx taps bracketing the
// fabric's meter taps).  Spans nest — pull() runs inside on_packet() through
// the stack's kick(), meter taps run inside on_packet() — so a thread-local
// stack of child totals turns each span into exclusive ("busy") time.
//
// Every accumulator belongs to one host or one switch port, and a host or
// switch belongs to exactly one shard, so under threaded shards each
// accumulator is only ever touched by one thread and needs no atomics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/sim/host.hpp"
#include "src/sim/switch.hpp"

namespace vfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one boundary and their exclusive wall time.
struct Acc {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
};

namespace detail {
inline constexpr int kMaxDepth = 32;
struct Frame {
  std::int64_t start;
  std::int64_t child_ns;
};
inline thread_local Frame frames[kMaxDepth];
inline thread_local int depth = 0;
}  // namespace detail

/// Opens a span on this thread.  Every span_begin must be matched by one
/// span_end on the same thread, innermost first.
inline void span_begin() {
  if (detail::depth == detail::kMaxDepth) {
    std::fprintf(stderr, "vfbench: span nesting deeper than %d\n", detail::kMaxDepth);
    std::abort();
  }
  detail::frames[detail::depth++] = detail::Frame{now_ns(), 0};
}

/// Closes the innermost span and charges its exclusive time to `acc`.
inline void span_end(Acc& acc) {
  const detail::Frame f = detail::frames[--detail::depth];
  const std::int64_t dt = now_ns() - f.start;
  acc.busy_ns += dt - f.child_ns;
  ++acc.calls;
  if (detail::depth > 0) detail::frames[detail::depth - 1].child_ns += dt;
}

class Span {
 public:
  explicit Span(Acc& acc) : acc_(acc) { span_begin(); }
  ~Span() { span_end(acc_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Acc& acc_;
};

/// Forwards a host's packets and NIC pulls to the stack it adopted.
class TracedStack final : public ufab::sim::HostStack {
 public:
  explicit TracedStack(ufab::sim::HostStack& inner) : inner_(inner) {}

  void on_packet(ufab::sim::PacketPtr pkt) override {
    const Span s(rx);
    inner_.on_packet(std::move(pkt));
  }
  ufab::sim::PacketPtr pull() override {
    const Span s(pull_acc);
    ufab::sim::PacketPtr pkt = inner_.pull();
    if (pkt == nullptr) ++empty_pulls;
    return pkt;
  }

  Acc rx;
  Acc pull_acc;
  Acc meter;  ///< Charged by the rx taps that bracket the fabric's meters.
  std::uint64_t empty_pulls = 0;

 private:
  ufab::sim::HostStack& inner_;
};

/// Forwards one switch port's probe egresses to its uFAB-C agent.
class TracedEgress final : public ufab::sim::EgressProcessor {
 public:
  explicit TracedEgress(ufab::sim::EgressProcessor& inner) : inner_(inner) {}

  void on_probe_egress(ufab::sim::Packet& pkt, ufab::sim::Link& link, ufab::TimeNs now) override {
    const Span s(acc);
    inner_.on_probe_egress(pkt, link, now);
  }

  Acc acc;

 private:
  ufab::sim::EgressProcessor& inner_;
};

}  // namespace vfbench
