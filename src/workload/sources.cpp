#include "src/workload/sources.hpp"

#include <algorithm>

#include "src/core/assert.hpp"

namespace ufab::workload {

// ---------------------------------------------------------------------------
// OnOffSource
// ---------------------------------------------------------------------------

OnOffSource::OnOffSource(harness::Fabric& fab, VmPairId pair, Config cfg)
    : fab_(fab), pair_(pair), cfg_(cfg), unlimited_(cfg.start_unlimited) {
  // The source's timers live on the sending host's shard (follow-up events
  // inherit it), matching where the sends execute.
  fab_.schedule_on_host(fab_.vms().host_of(pair_.src), cfg_.start,
                        [this] { toggle_initial(); });
}

void OnOffSource::toggle_initial() {
  // Enter the configured initial phase and schedule the flip cadence.
  if (unlimited_) {
    top_up_unlimited();
  } else {
    tick_limited();
  }
  toggle_scheduled();
}

void OnOffSource::toggle_scheduled() {
  fab_.sim().after(cfg_.period, [this] {
    if (fab_.sim().now() >= cfg_.stop) return;
    unlimited_ = !unlimited_;
    if (unlimited_) {
      top_up_unlimited();
    } else {
      tick_limited();
    }
    toggle_scheduled();
  });
}

void OnOffSource::tick_limited() {
  if (unlimited_ || fab_.sim().now() >= cfg_.stop) return;
  fab_.send(pair_, cfg_.chunk_bytes);
  const double gap_ns =
      static_cast<double>(cfg_.chunk_bytes) * 8e9 / cfg_.limited_rate.bits_per_sec();
  fab_.sim().after(TimeNs{static_cast<std::int64_t>(gap_ns)}, [this] { tick_limited(); });
}

void OnOffSource::top_up_unlimited() {
  if (!unlimited_ || fab_.sim().now() >= cfg_.stop) return;
  const HostId src = fab_.vms().host_of(pair_.src);
  auto* conn = fab_.stack_at(src).find_connection(pair_);
  std::int64_t queued = conn != nullptr ? conn->queued_bytes() : 0;
  while (queued < 2 * cfg_.chunk_bytes * 8) {
    fab_.send(pair_, cfg_.chunk_bytes * 8);
    queued += cfg_.chunk_bytes * 8;
  }
  fab_.sim().after(TimeNs{100'000}, [this] { top_up_unlimited(); });
}

// ---------------------------------------------------------------------------
// FlowRecorder
// ---------------------------------------------------------------------------

void FlowRecorder::on_start(std::uint64_t tag, TimeNs started, double expected_sec,
                            std::int64_t size_bytes) {
  slot_of_tag_.emplace(tag, flows_.size());
  flows_.push_back(Flow{started, expected_sec, size_bytes});
}

void FlowRecorder::on_delivery(std::uint64_t tag, TimeNs delivered) {
  const auto it = slot_of_tag_.find(tag);
  if (it == slot_of_tag_.end()) return;
  Flow& f = flows_[it->second];
  if (f.delivered.ns() >= 0) return;  // first completion wins
  f.delivered = delivered;
}

void FlowRecorder::refresh() const {
  std::size_t done = 0;
  for (const Flow& f : flows_) {
    if (f.delivered.ns() >= 0) ++done;
  }
  if (done == cached_done_ && flows_.size() == cached_started_) return;
  cached_done_ = done;
  cached_started_ = flows_.size();
  fct_us_ = PercentileTracker{};
  slowdown_ = PercentileTracker{};
  for (const Flow& f : flows_) {
    if (f.delivered.ns() < 0) continue;
    const double fct_sec = (f.delivered - f.started).sec();
    fct_us_.add(fct_sec * 1e6);
    slowdown_.add(fct_sec / std::max(f.expected_sec, 1e-9));
  }
}

const PercentileTracker& FlowRecorder::fct_us() const {
  refresh();
  return fct_us_;
}

const PercentileTracker& FlowRecorder::slowdown() const {
  refresh();
  return slowdown_;
}

std::size_t FlowRecorder::completed() const {
  refresh();
  return cached_done_;
}

double FlowRecorder::violation_volume_pct() const {
  double violated = 0.0;
  double total = 0.0;
  for (const Flow& f : flows_) {
    if (f.delivered.ns() < 0) continue;
    total += static_cast<double>(f.size);
    const double slow = (f.delivered - f.started).sec() / std::max(f.expected_sec, 1e-9);
    if (slow > 1.0) violated += static_cast<double>(f.size) * (1.0 - 1.0 / slow);
  }
  return total <= 0.0 ? 0.0 : 100.0 * violated / total;
}

PercentileTracker FlowRecorder::slowdown_for_sizes(std::int64_t min_bytes,
                                                   std::int64_t max_bytes) const {
  PercentileTracker out;
  for (const Flow& f : flows_) {
    if (f.delivered.ns() < 0 || f.size < min_bytes || f.size >= max_bytes) continue;
    out.add((f.delivered - f.started).sec() / std::max(f.expected_sec, 1e-9));
  }
  return out;
}

// ---------------------------------------------------------------------------
// PoissonFlowGenerator
// ---------------------------------------------------------------------------

PoissonFlowGenerator::PoissonFlowGenerator(harness::Fabric& fab, std::vector<VmPairId> pairs,
                                           EmpiricalSizeDist dist, Config cfg, Rng rng)
    : fab_(fab),
      pairs_(std::move(pairs)),
      dist_(std::move(dist)),
      cfg_(cfg),
      rng_(rng),
      next_tag_(cfg.tag_base) {
  UFAB_CHECK(!pairs_.empty());
  UFAB_CHECK_MSG(cfg_.stop < TimeNs::max(), "PoissonFlowGenerator needs a finite stop time");
  // Interpret target_load against the aggregate sending capacity of the
  // distinct source hosts feeding this generator.
  std::vector<bool> seen(fab_.net().host_count(), false);
  double total_bps = 0.0;
  for (const VmPairId& p : pairs_) {
    const HostId h = fab_.vms().host_of(p.src);
    if (!seen[static_cast<std::size_t>(h.value())]) {
      seen[static_cast<std::size_t>(h.value())] = true;
      total_bps += fab_.net().host(h).nic().capacity().bits_per_sec();
    }
  }
  mean_gap_sec_ = dist_.mean_bytes() * 8.0 / (cfg_.target_load * total_bps);

  fab_.add_delivery_listener([this](const transport::Message& msg, TimeNs at) {
    recorder_.on_delivery(msg.user_tag, at);
  });
  // Pre-draw the whole arrival schedule up front, per arrival in the order
  // pair, size, gap, homing each send on its source host's shard.  The
  // schedule — and every flow record — is then a pure function of the seed,
  // independent of how the engine executes.
  TimeNs t = cfg_.start;
  while (t < cfg_.stop) {
    const VmPairId pair = pairs_[rng_.below(pairs_.size())];
    const std::int64_t size = dist_.sample(rng_);
    const std::uint64_t tag = next_tag_++;
    const double guarantee_bps = fab_.vms().vm_guarantee(pair.src).bits_per_sec();
    recorder_.on_start(tag, t, static_cast<double>(size) * 8.0 / guarantee_bps, size);
    fab_.schedule_on_host(fab_.vms().host_of(pair.src), t,
                          [this, pair, size, tag] { fab_.send(pair, size, tag); });
    const double gap = rng_.exponential(mean_gap_sec_);
    t += TimeNs{static_cast<std::int64_t>(gap * 1e9)};
  }
}

}  // namespace ufab::workload
