// PicNIC' + WCC + Clove — the paper's strongest baseline composite (§2.2).
//
//  * PicNIC' (the bandwidth-envelope components of PicNIC, similar to EyeQ):
//    sender-side WFQ across tenants plus receiver-driven rate allocation —
//    the receiver's congestion point measures per-pair arrival rates every
//    RCM period and, when the downlink nears saturation, advertises weighted
//    max-min rates back to senders in credit messages.
//  * WCC: Swift delay-based congestion control with Seawall-style per-source
//    weights in the fabric.
//  * Clove: flowlet-granularity path selection driven by ECN feedback.
//
// None of these components sees bandwidth *subscription*, which is exactly
// the failure mode Figures 4/5 demonstrate.
#pragma once

#include <unordered_map>

#include "src/baselines/clove.hpp"
#include "src/baselines/swift.hpp"
#include "src/transport/transport.hpp"
#include "src/ufab/wfq.hpp"

namespace ufab::baselines {

struct PwcConfig {
  SwiftConfig swift;
  CloveConfig clove;
  /// Receiver control message (credit) period.
  TimeNs rcm_period = TimeNs{100'000};  // 100 us
  /// Receiver starts shaping when arrivals exceed this fraction of line rate.
  double congestion_threshold = 0.90;
  /// Headroom multiplier on measured demand so senders can ramp.
  double demand_headroom = 1.5;
  /// Weight normalization: tokens per unit of Swift additive increase.
  double weight_unit_bps = 1e9;
  double wfq_base_weight = 5e8;
};

struct PwcConnection : transport::Connection {
  std::unique_ptr<SwiftCc> swift;
  std::unique_ptr<CloveSelector> clove;
  double credit_bps = 0.0;  ///< 0 = no cap received yet.
  TimeNs next_send_at = TimeNs::zero();
};

class PwcTransport : public transport::TransportStack {
 public:
  PwcTransport(topo::Network& net, const harness::VmMap& vms, HostId host, PwcConfig cfg = {},
               transport::TransportOptions topts = {}, Rng rng = Rng{1});

  [[nodiscard]] std::int64_t credits_sent() const { return credits_sent_; }

 protected:
  std::unique_ptr<transport::Connection> make_connection() override;
  void on_connection_created(transport::Connection& conn) override;
  bool can_send(const transport::Connection& conn) const override;
  TimeNs earliest_send(const transport::Connection& conn) const override;
  void on_data_sent(transport::Connection& conn, const sim::Packet& pkt) override;
  void on_ack(transport::Connection& conn, const sim::Packet& ack,
              std::optional<TimeNs> rtt) override;
  void on_data_received(const sim::Packet& pkt) override;
  void on_control_packet(sim::PacketPtr pkt) override;
  void select_path(transport::Connection& conn) override;
  void arm(transport::Connection& conn) override;
  transport::Connection* next_sender(TimeNs& release) override;

 private:
  void rcm_tick();
  void ensure_rcm_timer();

  PwcConfig cfg_;
  /// Tenant WFQ; a connection's entity is 1 + its index in conn_order_.
  edge::WfqScheduler wfq_;

  /// Receiver-side arrival accounting per incoming pair.
  struct Arrival {
    VmPairId pair;
    TenantId tenant;
    HostId src_host;
    std::int64_t bytes_in_period = 0;
    TimeNs last_seen = TimeNs::zero();
  };
  std::unordered_map<std::uint64_t, Arrival> arrivals_;
  bool rcm_running_ = false;
  std::int64_t credits_sent_ = 0;
};

}  // namespace ufab::baselines
