// Packet model.
//
// One struct covers every packet kind on the simulated wire: tenant data,
// per-packet ACKs, uFAB probes / responses / finish probes, and the credit
// messages used by receiver-driven baselines.  Probes accumulate an INT stack
// (one IntRecord per traversed switch egress), mirroring the wire format of
// Appendix G.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/ids.hpp"
#include "src/core/small_vec.hpp"
#include "src/core/time.hpp"
#include "src/core/units.hpp"
#include "src/sim/packet_pool.hpp"

namespace ufab::sim {

enum class PacketKind : std::uint8_t {
  kData,           ///< Tenant payload.
  kAck,            ///< Per-packet acknowledgment (also carries ECN echo).
  kProbe,          ///< uFAB-E probe carrying (phi, w); collects INT.
  kProbeResponse,  ///< Destination's echo of the INT stack + receiver token.
  kFinishProbe,    ///< Explicit VM-pair deregistration along a path.
  kCredit,         ///< Receiver-driven rate advertisement (PicNIC'/EyeQ).
};

[[nodiscard]] const char* to_string(PacketKind kind);

/// Telemetry written by one uFAB-C egress into a probe (one per hop).
struct IntRecord {
  LinkId link;                      ///< Which egress link this snapshot describes.
  double phi_total = 0.0;           ///< Φ_l: total active tokens on the link.
  /// W_l: total claimed admission, reported by uFAB-E as window/baseRTT
  /// (bytes per second) so the aggregate is RTT-neutral.
  double window_total = 0.0;
  std::int64_t tx_bytes_cum = 0;    ///< Cumulative bytes transmitted (for rate diff).
  TimeNs stamp;                     ///< Switch-local time of the snapshot.
  Bandwidth tx_rate_hint;           ///< Switch's own short-window rate estimate.
  std::int64_t queue_bytes = 0;     ///< q_l at probe processing time.
  Bandwidth capacity;               ///< Physical C_l (target = eta * capacity).
};

/// Fields specific to probes, responses, and finish probes (section 3.6).
struct ProbeFields {
  double phi = 0.0;           ///< Pair token currently claimed by the sender.
  double window = 0.0;        ///< Pair window (bytes) currently claimed.
  double phi_receiver = 0.0;  ///< Receiver-admitted token (set in the response).
  std::uint64_t seq = 0;      ///< Per-(pair, path) probe sequence number.
  std::uint64_t reg_key = 0;  ///< Switch registration key: hash of (pair, path).
  std::int32_t finish_acks = 0;  ///< Switches that confirmed deregistration.
  /// Scout probes carry zero tokens/window: they gather INT from candidate
  /// paths during migration without distorting the path's subscription.
  bool scout = false;
};

struct Packet;

/// Destroying a PacketPtr recycles pooled packets instead of freeing them.
struct PacketDeleter {
  void operator()(Packet* p) const;
};
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Inline capacities sized for the deepest supported path (FatTree: 5 switch
/// hops host-to-host), so routes and INT stacks never touch the heap.
inline constexpr std::size_t kInlineRouteHops = 8;
inline constexpr std::size_t kInlineIntRecords = 6;

using RouteVec = SmallVec<std::int32_t, kInlineRouteHops>;
using IntStack = SmallVec<IntRecord, kInlineIntRecords>;

struct Packet {
  PacketKind kind = PacketKind::kData;
  std::uint64_t id = 0;  ///< Globally unique, for tracing.
  VmPairId pair;
  TenantId tenant;
  std::uint64_t message_id = 0;
  std::int32_t size_bytes = 0;  ///< Wire size (headers included).

  HostId src_host;
  HostId dst_host;

  /// Source route: egress port index at the i-th switch on the path. Empty
  /// means "use the switch ECMP tables" (baseline mode / motivation studies).
  RouteVec route;
  std::int32_t hop = 0;
  PathId path_tag;  ///< Sender-side path index, echoed back in ACKs/responses.
  /// Source route for the matching reverse-direction packet (ACK/response),
  /// so feedback returns along the same physical links.
  RouteVec reverse_route;

  // --- data / ack ---
  std::int64_t seq = 0;        ///< First payload byte offset within the message.
  std::int32_t payload = 0;    ///< Payload bytes carried / acknowledged.
  std::int64_t message_size = 0;        ///< Total message bytes (for reassembly).
  std::uint64_t acked_packet_id = 0;    ///< In ACKs: id of the data packet acked.
  TimeNs msg_created;                   ///< Message creation time (FCT accounting).
  std::uint64_t user_tag = 0;           ///< Application correlation tag.
  bool last_of_message = false;
  TimeNs sent_at;              ///< Sender timestamp (echoed in ACKs for RTT).
  bool ecn_capable = true;
  bool ecn_ce = false;    ///< Congestion Experienced mark set by a switch.
  bool ecn_echo = false;  ///< CE echoed back to the sender (in ACKs).

  // --- credit (receiver-driven baselines) ---
  Bandwidth credit_rate;  ///< Advertised sending rate.

  // --- probe family ---
  ProbeFields probe;
  IntStack telemetry;

  /// The pool this packet recycles into on destruction (null: plain heap).
  PacketPool* origin_pool = nullptr;

  /// Makes a packet on the plain heap (tests, setup paths).  Hot paths use
  /// PacketPool::make via their simulator so storage is recycled.
  [[nodiscard]] static PacketPtr make(PacketKind kind, VmPairId pair, TenantId tenant,
                                      HostId src, HostId dst, std::int32_t size_bytes);

  /// Returns every field to its freshly-constructed state, keeping any
  /// route/telemetry storage capacity.  Must cover *all* fields: a pooled
  /// packet's next life must not observe this one (see packet_pool_test).
  void reset_for_reuse();
};

/// Pooled variant of Packet::make: recycled storage, per-pool packet ids.
[[nodiscard]] PacketPtr make_packet(PacketPool& pool, PacketKind kind, VmPairId pair,
                                    TenantId tenant, HostId src, HostId dst,
                                    std::int32_t size_bytes);

/// Wire-size constants (documented against Appendix G).
inline constexpr std::int32_t kMtuBytes = 1500;
inline constexpr std::int32_t kDataHeaderBytes = 58;   ///< Eth+IP+UDP+SR.
inline constexpr std::int32_t kAckBytes = 64;
inline constexpr std::int32_t kProbeBaseBytes = 64;    ///< Headers + probe fields.
inline constexpr std::int32_t kIntRecordBytes = 8;     ///< Per-hop INT payload.
inline constexpr std::int32_t kCreditBytes = 64;

/// Probe wire size grows with the INT stack, as on real hardware.
[[nodiscard]] inline std::int32_t probe_wire_size(std::int32_t hops) {
  return kProbeBaseBytes + kIntRecordBytes * hops;
}

}  // namespace ufab::sim
