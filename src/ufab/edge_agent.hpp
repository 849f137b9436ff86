// uFAB-E: the active edge (sections 3.3-3.5, 4.1).
//
// EdgeAgent is the per-host transport stack implementing the paper's control
// laws on top of the shared transport framework:
//
//  * Hierarchical bandwidth allocation (Eqns 1-3): every probe response
//    carries per-link (Phi_l, W_l, tx_l, q_l, C_l); the edge derives the
//    guaranteed share r = min_l (phi/Phi_l)*C_l and the admission window
//        w^l = min{ (phi/Phi_l) * W_l * (C_l*T)/(tx_l*T + q_l),  C_l*T }
//    taking the min over links on the path.
//  * Two-stage traffic admission (§3.4): a joining/bursting pair bootstraps
//    at its guarantee BDP and additively increases by its capacity share per
//    RTT until the Eqn-3 window takes over, bounding inflight at 3x BDP.
//  * Path migration (§3.5): 5 consecutive subscription violations trigger
//    scout probes over candidate paths; the pair moves to a qualified path
//    (C_l >= (Phi_l + phi)*B_u on every link) with minimum subscription,
//    then freezes migration for a random [1, N]-RTT window.
//  * Scalable probing (§4.1): self-clocked, at most one probe outstanding
//    per pair, next probe after L_m transmitted bytes (with a 1-RTT floor
//    while backlogged), giving the bounded overhead of Fig. 15b.
//  * Guarantee Partitioning (§6, Appendix E): a periodic token epoch runs
//    Algorithm 1 on both sides; receiver-admitted tokens return in probe
//    responses.
//  * Hierarchical WFQ across VFs at the NIC (§4.1), 8 weight levels.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/transport/transport.hpp"
#include "src/ufab/wfq.hpp"

namespace ufab::obs {
enum class EventKind : std::uint8_t;
}  // namespace ufab::obs

namespace ufab::edge {

enum class ProbeMode {
  kAdaptive,  ///< Next probe after min(L_m bytes sent, 1 base RTT). Default.
  kPeriodic,  ///< Fixed cadence of `periodic_rtts` (Fig. 18c ablation).
};

struct EdgeConfig {
  /// Target utilization eta; C_l used by the edge is eta * physical.
  double eta = 0.95;
  /// L_m: payload bytes between probes (4 KB bounds overhead at 1.28%).
  std::int64_t probe_interval_bytes = 4096;
  ProbeMode probe_mode = ProbeMode::kAdaptive;
  double periodic_rtts = 2.0;
  /// Token (Guarantee Partitioning) epoch, 32 us in the paper's testbed.
  TimeNs token_update_period = TimeNs{32'000};
  /// Consecutive violating responses (~RTTs) before migrating (§3.5).
  int violation_threshold = 5;
  /// Migration freeze window upper bound N: random [1, N] RTTs.
  int freeze_window_max_rtts = 10;
  /// Probe considered lost after this many base RTTs (§4.1: 8).
  double probe_timeout_rtts = 8.0;
  /// Consecutive probe losses that declare the path dead.
  int probe_losses_to_migrate = 2;
  /// Candidate paths scouted per migration attempt.
  std::size_t scout_paths = 4;
  /// Disable for uFAB' (no bounded-latency optimization, Fig. 12).
  bool two_stage_admission = true;
  /// Optional reorder-free migration: probe-only first RTT on the new path.
  bool reorder_free_migration = false;
  /// Send a finish probe after this much sender idleness. Short timeouts
  /// matter under bursty many-flow workloads: a lingering registration keeps
  /// reserving Phi_l on five links per idle pair.
  TimeNs idle_finish_timeout = TimeNs{1'000'000};  // 1 ms
  /// Window floor in bytes (keeps progress under extreme contention).
  double min_window_bytes = 3000.0;
  /// WFQ base weight (tokens mapped to level 0) and quantum.
  double wfq_base_weight = 5e8;
  std::int32_t wfq_quantum = 1500;
  /// Record per-connection probe-response arrival times (Appendix D study).
  bool record_response_times = false;
  // --- failure handling (exercised by the src/faults fault plane) ---
  /// Exponential-backoff base for probe retransmission after a timeout: the
  /// k-th consecutive loss waits baseRTT * probe_backoff_rtts * 2^(k-1)
  /// before resending (immediate resends hammer a path exactly while it is
  /// sick, and under probe-class loss the resend storm alone would defeat
  /// the overhead bound of §4.1).
  double probe_backoff_rtts = 1.0;
  /// Cap on the backoff exponent (bounds the longest retransmit wait).
  int probe_backoff_max_shift = 6;
  /// Telemetry stamped older than this many base RTTs is stale (frozen INT,
  /// wedged switch clock): fall back to the guarantee-only window instead
  /// of feeding garbage into Eqns 1-3.
  double telemetry_stale_rtts = 8.0;
  /// A Φ_l drop on a current-path link exceeding this fraction of the last
  /// reading (and exceeding the pair's own φ) signals switch state loss.
  double phi_discontinuity_frac = 0.5;
  /// Hold the guarantee-only window this many RTTs after a detected state
  /// loss while re-registration probes rebuild Φ_l/W_l at the switch.
  double reregister_hold_rtts = 3.0;
  /// Finish-probe retry budget; exhaustion abandons the deregistration to
  /// the core's silent-quit sweep (leak-free: no pending state remains).
  int finish_probe_retries = 10;
  /// Scout candidate paths at join time and start on a qualified one (§3.5).
  /// Disabled by the Fig. 18 sensitivity study to isolate violation-driven
  /// migration dynamics.
  bool initial_placement_scouting = true;
};

/// Per-VM-pair uFAB state on top of the generic connection.
struct UfabConnection : transport::Connection {
  // --- tokens (1 token = 1 bps) ---
  double phi_s = 0.0;       ///< Sender-assigned (Algorithm 1).
  double phi_r = 0.0;       ///< Receiver-admitted, from probe responses.
  bool phi_r_known = false;
  [[nodiscard]] double phi() const { return phi_r_known ? std::min(phi_s, phi_r) : phi_s; }

  // --- admission windows (bytes) ---
  double window = 0.0;   ///< Effective admission window.
  double w_stage = 0.0;  ///< Bootstrap additive window (two-stage stage 1).
  bool bootstrap = true;
  double r_path_bps = 0.0;  ///< Eqn 1 guaranteed share along the path.
  bool path_qualified = true;
  TimeNs data_blocked_until = TimeNs::zero();  ///< Reorder-free migration gate.

  // --- probing ---
  bool probe_outstanding = false;
  TimeNs probe_sent_at = TimeNs::zero();
  std::uint64_t probe_seq = 0;
  std::int64_t bytes_at_last_probe = 0;
  int probe_losses = 0;
  TimeNs last_response_at = TimeNs::zero();
  bool probe_floor_scheduled = false;
  /// Per-link telemetry samples: cumulative TX bytes + stamp for HPCC-style
  /// rate differentiation, and the last observed Φ_l for switch state-loss
  /// detection (a register discontinuity means the switch rebooted).
  struct LinkSample {
    std::int64_t tx_bytes = 0;
    TimeNs stamp;
    double phi_total = -1.0;  ///< <0 means no previous reading.
  };
  std::unordered_map<std::int32_t, LinkSample> link_samples;
  /// While now < this, only the guarantee window is admitted (recovery from
  /// switch state loss or stale telemetry).
  TimeNs guarantee_only_until = TimeNs::zero();

  // --- switch registration ---
  std::uint64_t reg_key = 0;
  double reg_phi = 0.0;
  double reg_window = 0.0;
  bool registered = false;

  // --- migration ---
  int violations = 0;
  TimeNs no_migrate_until = TimeNs::zero();
  bool scouting = false;
  std::uint64_t scout_round = 0;
  struct ScoutResult {
    std::int32_t path_idx;
    bool qualified;
    double subscription_ratio;  ///< max_l (Phi_l + phi) / C_l.
  };
  std::vector<ScoutResult> scout_results;
  int scouts_pending = 0;

  // --- token-epoch accounting ---
  std::int64_t bytes_at_epoch = 0;
  TimeNs epoch_started = TimeNs::zero();

  /// Probe-response arrival log (only with EdgeConfig::record_response_times).
  std::vector<TimeNs> response_times;
};

class EdgeAgent : public transport::TransportStack {
 public:
  EdgeAgent(topo::Network& net, const harness::VmMap& vms, HostId host,
            EdgeConfig cfg = {}, transport::TransportOptions topts = {}, Rng rng = Rng{1});

  // --- observability ---
  void attach_obs(obs::Obs& obs) override;
  [[nodiscard]] std::int64_t migrations() const { return migrations_; }
  [[nodiscard]] std::int64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::int64_t probe_bytes_sent() const { return probe_bytes_; }
  [[nodiscard]] std::int64_t probe_timeouts() const { return probe_timeouts_; }
  [[nodiscard]] std::int64_t probe_retransmits() const { return probe_retransmits_; }
  [[nodiscard]] std::int64_t state_losses_detected() const { return state_losses_detected_; }
  [[nodiscard]] std::int64_t reregistrations() const { return reregistrations_; }
  [[nodiscard]] std::int64_t stale_telemetry_events() const { return stale_telemetry_events_; }
  [[nodiscard]] std::int64_t guarantee_degradations() const { return guarantee_degradations_; }
  [[nodiscard]] std::int64_t finish_retries() const { return finish_retries_; }
  [[nodiscard]] std::int64_t finish_abandoned() const { return finish_abandoned_; }
  [[nodiscard]] std::size_t pending_finish_count() const { return pending_finishes_.size(); }
  [[nodiscard]] const EdgeConfig& config() const { return cfg_; }
  /// uFAB state of a pair's connection (nullptr if absent).
  [[nodiscard]] UfabConnection* ufab_connection(VmPairId pair);

 protected:
  std::unique_ptr<transport::Connection> make_connection() override;
  void on_connection_created(transport::Connection& conn) override;
  bool can_send(const transport::Connection& conn) const override;
  void on_data_sent(transport::Connection& conn, const sim::Packet& pkt) override;
  void on_demand_arrived(transport::Connection& conn) override;
  void on_control_packet(sim::PacketPtr pkt) override;
  void arm(transport::Connection& conn) override;
  transport::Connection* next_sender(TimeNs& release) override;

 private:
  // --- probing ---
  void send_probe(UfabConnection& c);
  void send_scout_probe(UfabConnection& c, std::int32_t path_idx);
  void schedule_probe_timeout(UfabConnection& c, std::uint64_t seq);
  void schedule_probe_floor(UfabConnection& c);
  void handle_probe_at_destination(sim::PacketPtr pkt);
  void handle_finish_at_destination(sim::PacketPtr pkt);
  void handle_response(sim::PacketPtr pkt);
  void handle_data_response(UfabConnection& c, const sim::Packet& pkt);
  void handle_scout_response(UfabConnection& c, const sim::Packet& pkt);

  // --- control laws ---
  struct PathEvaluation {
    double w_bytes;      ///< Eqn 3 window, min over links.
    double r_bps;        ///< Eqn 1 guaranteed share, min over links.
    bool qualified;      ///< C_l >= Phi_l * B_u on all links.
    bool qualified_as_new;  ///< C_l >= (Phi_l + phi) * B_u on all links.
    double subscription_ratio;
    /// Φ_l collapsed versus the previous reading on some current-path link:
    /// a switch lost its register state (reboot / warm restart).
    bool phi_discontinuity = false;
  };
  PathEvaluation evaluate_path(UfabConnection& c, const sim::Packet& response,
                               bool update_samples);
  void apply_two_stage(UfabConnection& c, const PathEvaluation& eval);

  // --- migration ---
  void note_violation(UfabConnection& c, bool violated);
  void start_scouting(UfabConnection& c, bool include_current = false);
  void finish_scouting(UfabConnection& c);
  void migrate_to(UfabConnection& c, std::int32_t path_idx);
  void send_finish_probe(UfabConnection& c, std::int32_t path_idx, std::uint64_t reg_key,
                         int retries_left);

  // --- tokens / registration ---
  void token_epoch();
  void ensure_token_timer();
  [[nodiscard]] std::uint64_t registration_key(const UfabConnection& c,
                                               std::int32_t path_idx) const;
  /// Flight-recorder helper for control-plane events on this host's track.
  void record_event(obs::EventKind kind, const UfabConnection& c, std::uint64_t seq,
                    double a, double b, std::uint8_t detail = 0);
  [[nodiscard]] double window_floor(const UfabConnection& c) const;
  [[nodiscard]] static double bytes_for(double bps, TimeNs t) {
    return bps * static_cast<double>(t.ns()) / 8e9;
  }

  /// In-flight finish probes awaiting per-switch acknowledgments.
  struct PendingFinish {
    std::int32_t expected_acks;
    int retries_left;
  };
  std::unordered_map<std::uint64_t, PendingFinish> pending_finishes_;

  EdgeConfig cfg_;
  /// VM-pair queues; a connection's entity is 1 + its index in conn_order_.
  WfqScheduler wfq_;

  /// Receiver-side incoming-pair state for token admission.
  struct IncomingPair {
    VmPairId pair;
    double requested = 0.0;
    double admitted = 0.0;
    TimeNs last_seen = TimeNs::zero();
  };
  std::unordered_map<std::uint64_t, IncomingPair> incoming_;  // by pair key

  bool token_timer_running_ = false;
  std::int64_t migrations_ = 0;
  std::int64_t probes_sent_ = 0;
  std::int64_t probe_bytes_ = 0;
  std::int64_t probe_timeouts_ = 0;
  std::int64_t probe_retransmits_ = 0;
  std::int64_t state_losses_detected_ = 0;
  std::int64_t reregistrations_ = 0;
  std::int64_t stale_telemetry_events_ = 0;
  std::int64_t guarantee_degradations_ = 0;
  std::int64_t finish_retries_ = 0;
  std::int64_t finish_abandoned_ = 0;
};

}  // namespace ufab::edge
