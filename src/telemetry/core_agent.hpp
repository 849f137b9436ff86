// uFAB-C: the informative core agent attached to one switch egress (§3.6, §4.2).
//
// For every probe that leaves through its egress, the agent
//   (1) reads the VM-pair's claimed (phi, w) and folds them into the link
//       registers Phi_l / W_l — gated by a Bloom-filter membership test, so a
//       Bloom false positive omits the pair exactly as the paper describes;
//   (2) appends an IntRecord carrying (Phi_l, W_l, cumulative TX bytes,
//       timestamp, queue depth, capacity) for the edge to act on.
//
// Finish probes deregister a pair; per-switch acknowledgments are counted in
// the probe so the edge can retry until every hop confirmed.  Pairs that quit
// silently are aged out by a periodic sweep (10 s in the paper's deployment).
//
// Hardware-fidelity note: a Tofino keeps only the two registers plus a timing
// Bloom filter; the per-entry map here is the simulation stand-in that lets
// the sweep subtract exactly the aged pair's contribution.  Visibility is
// still gated by the Bloom filter so its false-positive behaviour is modeled.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/core/time.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/sim/link.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/switch.hpp"
#include "src/telemetry/bloom.hpp"

namespace ufab::telemetry {

struct CoreConfig {
  BloomConfig bloom;
  /// Sweep period for silently inactive pairs (paper: 10 s).
  TimeNs clean_period = TimeNs{10'000'000'000};
  /// Disable to give the switch exact membership (ablation studies).
  bool use_bloom = true;
  /// Quantize INT records to the 64-bit Appendix-G wire format before they
  /// leave the switch (the edge then works from quantized telemetry).
  bool quantize_int = false;
};

class CoreAgent final : public sim::EgressProcessor {
 public:
  CoreAgent(sim::Simulator& sim, CoreConfig cfg);

  void on_probe_egress(sim::Packet& pkt, sim::Link& link, TimeNs now) override;

  /// Warm restart (fault injection): the switch reboots and loses all
  /// register and Bloom state.  Registers rebuild from the re-registration
  /// probes active pairs keep sending — no control-plane resync exists, just
  /// as on a real Tofino power cycle.
  void reset_state();

  /// INT tamper hook (fault injection): invoked on every record about to be
  /// appended; the hook may mutate it (staleness, corruption) or return
  /// false to suppress it entirely (INT stripping).
  using IntTamper = std::function<bool(sim::IntRecord&, TimeNs now)>;
  void set_int_tamper(IntTamper tamper) { tamper_ = std::move(tamper); }

  /// Inserts a junk key into the Bloom filter (fault injection: saturation
  /// raises the false-positive rate the §3.6 analysis tolerates).
  void inject_bloom_junk(std::uint64_t key) { bloom_.insert(key); }

  [[nodiscard]] double phi_total() const { return phi_total_; }
  [[nodiscard]] double window_total() const { return window_total_; }
  [[nodiscard]] std::size_t active_pairs() const { return registered_.size(); }
  [[nodiscard]] std::int64_t false_positive_omissions() const { return fp_omissions_; }
  [[nodiscard]] std::int64_t resets() const { return resets_; }
  [[nodiscard]] std::int64_t suppressed_records() const { return suppressed_records_; }
  [[nodiscard]] const CountingBloomFilter& bloom() const { return bloom_; }

  /// Attaches the observability context. `track` identifies this egress in
  /// exports (the harness passes the owning switch + port).
  void set_obs(obs::Obs* obs, obs::Track track) {
    obs_ = obs;
    track_ = track;
  }

 private:
  struct PairEntry {
    double phi = 0.0;
    double window = 0.0;
    TimeNs last_seen;
  };

  void handle_probe(sim::Packet& pkt, TimeNs now);
  void handle_finish(sim::Packet& pkt, TimeNs now);
  void sweep(TimeNs now);
  void clamp_registers();
  void record_event(obs::EventKind kind, TimeNs now, VmPairId pair, TenantId tenant,
                    std::uint64_t seq, double a, double b);

  sim::Simulator& sim_;
  CoreConfig cfg_;
  CountingBloomFilter bloom_;
  IntTamper tamper_;
  std::unordered_map<std::uint64_t, PairEntry> registered_;
  double phi_total_ = 0.0;
  double window_total_ = 0.0;
  std::int64_t fp_omissions_ = 0;
  std::int64_t resets_ = 0;
  std::int64_t suppressed_records_ = 0;
  obs::Obs* obs_ = nullptr;
  obs::Track track_;
};

/// Attaches a CoreAgent to every egress port of `sw`; returns the agents.
/// The switch does not own them — callers keep the vector alive.
std::vector<std::unique_ptr<CoreAgent>> instrument_switch(sim::Simulator& sim, sim::Switch& sw,
                                                          const CoreConfig& cfg);

}  // namespace ufab::telemetry
