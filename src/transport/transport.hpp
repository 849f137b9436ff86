// Shared transport framework.
//
// TransportStack is the per-host engine common to uFAB-E and all baselines:
// connection tracking, packetization, per-packet ACKs with RTT sampling,
// selective-repeat retransmission, receiver-side reassembly, and NIC pull
// scheduling.  Scheme specifics (admission control, probing, path selection,
// scheduling policy) hang off virtual hooks.
//
// Conventions:
//  - A Connection is sender-side state for one directional VM pair.
//  - Data packets carry a source route taken from the connection's current
//    candidate path, or no route at all (ECMP mode for baselines).
//  - ACKs/credits/probe-responses are control packets: they bypass admission
//    and are pushed ahead of data on the NIC.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/ids.hpp"
#include "src/core/rng.hpp"
#include "src/core/time.hpp"
#include "src/harness/vm_map.hpp"
#include "src/sim/host.hpp"
#include "src/sim/packet.hpp"
#include "src/stats/p2.hpp"
#include "src/stats/percentile.hpp"
#include "src/topo/network.hpp"
#include "src/transport/message.hpp"

namespace ufab::obs {
class Obs;
}  // namespace ufab::obs

namespace ufab::transport {

struct TransportOptions {
  std::int32_t mtu_payload = 1440;  ///< Payload bytes per full data packet.
  /// Retransmission timeout as a multiple of the connection base RTT.
  double rto_rtts = 16.0;
  /// How many candidate underlay paths a connection keeps (uFAB picks a
  /// random subset of all equal-cost paths, §3.5).
  std::size_t candidate_paths = 8;
  /// If false, data carries no source route (plain ECMP forwarding).
  bool source_routing = true;
  /// Route RTT samples into an O(1)-memory streaming estimator instead of
  /// the exact store-everything tracker.  Figure runs keep the exact default;
  /// the soak harness flips this so a week of ACKs cannot grow the stack.
  bool bounded_rtt_stats = false;
};

class TransportStack;

/// Sender-side state for one directional VM pair.
struct Connection {
  virtual ~Connection() = default;

  VmPairId pair;
  TenantId tenant;
  std::uint32_t index = 0;  ///< Position in TransportStack::connections().
  HostId src_host;
  HostId dst_host;
  TimeNs base_rtt;
  TimeNs rto;  ///< Retransmission timeout: base_rtt x rto_rtts.

  // --- send queue ---
  std::deque<Message> sendq;
  std::int64_t cur_offset = 0;       ///< Send offset within sendq.front().
  std::int64_t inflight_bytes = 0;   ///< Wire bytes sent but not acked.
  std::int64_t bytes_sent_total = 0; ///< Payload bytes handed to the wire.

  struct Outstanding {
    std::uint64_t msg_id;
    std::uint64_t user_tag;
    std::int64_t offset;
    std::int32_t wire_bytes;
    std::int32_t payload;
    std::int64_t msg_size;
    TimeNs msg_created;
    TimeNs sent_at;
    bool retransmitted = false;
    bool last = false;
  };
  /// Keyed by the data packet id echoed back in ACKs.
  std::unordered_map<std::uint64_t, Outstanding> outstanding;
  std::deque<Outstanding> rtx_queue;  ///< Timed-out packets awaiting resend.

  /// Sender-side completion bookkeeping per message.
  struct PendingMessage {
    std::int64_t remaining;  ///< Unacked payload bytes.
    Message meta;
  };
  std::unordered_map<std::uint64_t, PendingMessage> pending_msgs;

  // --- paths ---
  std::vector<topo::Path> candidates;
  std::vector<topo::Path> candidate_reverse;
  std::int32_t path_idx = 0;

  // --- measurements ---
  TimeNs last_rtt = TimeNs::zero();
  TimeNs last_activity = TimeNs::zero();

  [[nodiscard]] bool has_backlog() const { return !sendq.empty() || !rtx_queue.empty(); }
  /// Wire size of the next packet this connection would transmit (0 if none).
  [[nodiscard]] std::int32_t next_wire_size(std::int32_t mtu_payload,
                                            std::int32_t header_bytes) const {
    if (!rtx_queue.empty()) return rtx_queue.front().wire_bytes;
    if (sendq.empty()) return 0;
    const std::int64_t rem = sendq.front().size_bytes - cur_offset;
    return static_cast<std::int32_t>(std::min<std::int64_t>(mtu_payload, rem)) + header_bytes;
  }
  [[nodiscard]] std::int64_t queued_bytes() const {
    std::int64_t total = -cur_offset;
    for (const auto& m : sendq) total += m.size_bytes;
    return total;
  }
  [[nodiscard]] const topo::Path& current_path() const {
    return candidates.at(static_cast<std::size_t>(path_idx));
  }
};

class TransportStack : public sim::HostStack {
 public:
  TransportStack(topo::Network& net, const harness::VmMap& vms, HostId host,
                 TransportOptions opts, Rng rng);
  ~TransportStack() override;

  // --- application API ---
  /// Queues a message for transmission; returns its id.
  std::uint64_t send_message(Message msg);
  void set_message_sink(MessageSink* sink) { sink_ = sink; }
  /// Observers invoked for every data packet delivered to this host
  /// (metering, application accounting). Taps stack.
  using RxTap = std::function<void(const sim::Packet&)>;
  void add_rx_tap(RxTap tap) { rx_taps_.push_back(std::move(tap)); }
  /// Sender-side completion callback: all bytes of the message were acked.
  using SentCallback = std::function<void(const Message&, TimeNs acked_at)>;
  void set_sent_callback(SentCallback cb) { sent_cb_ = std::move(cb); }

  // --- sim::HostStack ---
  void on_packet(sim::PacketPtr pkt) final;
  sim::PacketPtr pull() final;

  // --- observability ---
  /// Attaches this stack to a fabric observability context: registers its
  /// per-host metrics and starts recording transport events. Subclasses
  /// override to add scheme-specific metrics (and must call the base).
  virtual void attach_obs(obs::Obs& obs);
  [[nodiscard]] const PercentileTracker& rtt_samples_us() const { return rtt_us_; }
  /// Streaming RTT stats (µs); the live store under `bounded_rtt_stats`.
  [[nodiscard]] const StreamingStats& rtt_stream_us() const { return rtt_stream_us_; }
  /// RTT samples observed, whichever store is active.
  [[nodiscard]] std::uint64_t rtt_sample_count() const {
    return opts_.bounded_rtt_stats ? rtt_stream_us_.count() : rtt_us_.count();
  }
  /// p99 RTT in µs from the active store (0 when no samples yet).
  [[nodiscard]] double rtt_p99_us() const;
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  [[nodiscard]] Connection* find_connection(VmPairId pair);
  [[nodiscard]] const std::vector<Connection*>& connections() const { return conn_order_; }
  [[nodiscard]] HostId host_id() const { return host_; }

 protected:
  // --- hooks for schemes ---
  /// Allocates scheme-specific connection state.
  virtual std::unique_ptr<Connection> make_connection() {
    return std::make_unique<Connection>();
  }
  /// Called once after base fields are populated.
  virtual void on_connection_created(Connection& conn) { (void)conn; }
  /// Admission: may this connection put one more packet on the wire now?
  virtual bool can_send(const Connection& conn) const {
    (void)conn;
    return true;
  }
  /// For rate-paced schemes: earliest time `conn` may send next (or zero).
  virtual TimeNs earliest_send(const Connection& conn) const {
    (void)conn;
    return TimeNs::zero();
  }
  /// A data (or retransmitted) packet was handed to the NIC.
  virtual void on_data_sent(Connection& conn, const sim::Packet& pkt) {
    (void)conn;
    (void)pkt;
  }
  /// An ACK arrived; `rtt` present unless the sample was retransmit-tainted.
  virtual void on_ack(Connection& conn, const sim::Packet& ack, std::optional<TimeNs> rtt) {
    (void)conn;
    (void)ack;
    (void)rtt;
  }
  /// Non-data, non-ack packets (probes, responses, credits).
  virtual void on_control_packet(sim::PacketPtr pkt) { (void)pkt; }
  /// Data arrived for local delivery (receiver-side scheme accounting).
  virtual void on_data_received(const sim::Packet& pkt) { (void)pkt; }
  /// A connection with pending data went idle->active (new demand).
  virtual void on_demand_arrived(Connection& conn) { (void)conn; }
  /// `conn` may have become sendable: its backlog grew (new message, RTO
  /// requeue) or an ACK shrank its inflight and fed its congestion control.
  /// Schedulers that visit only armed connections re-arm it here.
  virtual void arm(Connection& conn) { (void)conn; }
  /// Re-chooses the connection's path just before a data packet is built
  /// (flowlet selectors override this). Default: keep the current path.
  virtual void select_path(Connection& conn) { (void)conn; }
  /// Scheduler: next connection allowed to send, or nullptr. A pass that
  /// finds nothing lowers `release` to the earliest earliest_send() among the
  /// backlogged, admissible connections it saw, so the NIC wakes when pacing
  /// frees one. The default is round-robin over connections that have
  /// backlog and pass can_send().
  virtual Connection* next_sender(TimeNs& release);

  // --- services for subclasses ---
  [[nodiscard]] topo::Network& network() { return net_; }
  [[nodiscard]] const harness::VmMap& vms() const { return vms_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] sim::Host& host() { return net_.host(host_); }
  [[nodiscard]] const TransportOptions& options() const { return opts_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Sends a control packet with priority, routed along `route`.
  void send_control_packet(sim::PacketPtr pkt);
  /// Notifies the NIC that new data may be admissible.
  void kick();
  /// Schedules a kick at `t` (deduplicated).
  void kick_at(TimeNs t);
  /// Looks up or creates the connection for `pair` (sender side).
  Connection& connection(VmPairId pair, TenantId tenant);
  /// Re-resolves candidate paths for a connection (after failures).
  void assign_candidate_paths(Connection& conn);

  /// All connections in creation order (subclass scheduling).
  std::vector<Connection*> conn_order_;

  /// Observability context (null when disabled); see attach_obs().
  obs::Obs* obs_ = nullptr;

 private:
  sim::PacketPtr make_data_packet(Connection& conn);
  sim::PacketPtr make_rtx_packet(Connection& conn);
  void handle_data(sim::PacketPtr pkt);
  void handle_ack(sim::PacketPtr pkt);
  void scan_for_timeouts();
  void ensure_rtx_scan(TimeNs deadline);

  topo::Network& net_;
  const harness::VmMap& vms_;
  sim::Simulator& sim_;
  HostId host_;
  TransportOptions opts_;
  Rng rng_;

  std::unordered_map<VmPairId, std::unique_ptr<Connection>> conns_;
  std::size_t rr_cursor_ = 0;

  MessageSink* sink_ = nullptr;
  SentCallback sent_cb_;
  std::vector<RxTap> rx_taps_;

  // Receiver-side reassembly: pair key -> (msg id -> chunk bitmap).
  struct Reassembly {
    Message msg;
    std::int64_t received = 0;
    std::vector<bool> chunks;
  };
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t, Reassembly>> rx_;

  PercentileTracker rtt_us_;       ///< Exact store (default mode only).
  StreamingStats rtt_stream_us_;   ///< O(1) store (`bounded_rtt_stats`).
  std::int64_t retransmits_ = 0;
  std::uint64_t next_msg_id_ = 1;
  bool kick_pending_ = false;
  TimeNs pending_kick_at_ = TimeNs::max();
  /// Tick of the one pending RTO sweep (TimeNs::max() when none); a sweep
  /// event whose generation is stale was superseded by an earlier one.
  TimeNs rtx_scan_at_ = TimeNs::max();
  std::uint64_t rtx_scan_gen_ = 0;
};

}  // namespace ufab::transport
