#include "src/soak/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/core/assert.hpp"
#include "src/core/log.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/schemes.hpp"
#include "src/topo/builders.hpp"
#include "src/ufab/edge_agent.hpp"

namespace ufab::soak {

SoakOptions SoakOptions::from_env() {
  SoakOptions o;
  if (const char* v = std::getenv("UFAB_SOAK_SEED"); v != nullptr && v[0] != '\0') {
    o.seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
  }
  if (const char* v = std::getenv("UFAB_SOAK_SMOKE"); v != nullptr && v[0] == '1') {
    o.apply_smoke();
  }
  if (const char* v = std::getenv("UFAB_SOAK_DURATION_S"); v != nullptr && v[0] != '\0') {
    o.duration = TimeNs{static_cast<std::int64_t>(std::strtod(v, nullptr) * 1e9)};
  }
  if (const char* v = std::getenv("UFAB_SOAK_WINDOW_MS"); v != nullptr && v[0] != '\0') {
    o.window = TimeNs{static_cast<std::int64_t>(std::strtod(v, nullptr) * 1e6)};
  }
  if (const char* v = std::getenv("UFAB_SOAK_CSV"); v != nullptr && v[0] != '\0') {
    o.csv_path = v;
  }
  return o;
}

void SoakOptions::apply_smoke() {
  duration = TimeNs{6'000'000'000};
  window = TimeNs{250'000'000};
  drain_grace = TimeNs{1'500'000'000};
  episodes.warmup = TimeNs{500'000'000};
  episodes.mean_gap = TimeNs{700'000'000};
  episodes.min_cooldown = TimeNs{350'000'000};
  episodes.mean_duration = TimeNs{500'000'000};
  episodes.max_duration = TimeNs{1'200'000'000};
  recovery_allowance = TimeNs{500'000'000};
}

struct SoakRunner::Impl {
  explicit Impl(SoakOptions o) : opts(std::move(o)) {}

  SoakOptions opts;
  std::unique_ptr<harness::Fabric> fab;
  std::unique_ptr<faults::FaultPlane> plane;
  std::unique_ptr<EpisodeScheduler> scheduler;
  std::unique_ptr<SloTracker> slo;
  std::unique_ptr<InvariantAuditor> auditor;

  std::vector<VmPairId> backlog_pairs;
  std::vector<VmPairId> bg_pairs;           ///< Short-flow pairs, src-half x dst-half.
  std::vector<std::size_t> bg_pairs_by_dst;  ///< Offsets: bg pairs grouped by dst host.
  std::vector<LinkId> trunk_links;
  std::vector<NodeId> switch_ids;

  Rng flows_rng{1};
  TimeNs rtt_est = TimeNs::zero();
  double guarantee_bps = 0.0;
  double wc_reference_bps = 0.0;
  double mean_flow_gap_sec = 0.0;

  // Window bookkeeping.
  std::vector<std::pair<TimeNs, TimeNs>> dirty;
  std::vector<std::int64_t> prev_pair_bytes;
  std::int64_t prev_drops = 0;
  std::int64_t prev_fault_drops = 0;
  std::int64_t prev_retx = 0;
  int recoveries = 0;

  void build();
  void flow_arrival();
  void schedule_workload();
  void schedule_traffic_episodes();
  void schedule_recovery_polls();
  void start_windows();
  void window_tick();
  [[nodiscard]] bool window_clean(TimeNs start) const;
  [[nodiscard]] int active_episodes(TimeNs start) const;
  [[nodiscard]] bool all_registered();
  void poll_recovery(TimeNs reset_at, int tries);
  SoakReport finish(double wall_seconds);

  [[nodiscard]] std::int64_t sum_drops() const {
    std::int64_t d = 0;
    for (const sim::Link* l : fab->net().links()) d += l->drops();
    return d;
  }
  [[nodiscard]] std::int64_t sum_fault_drops() const {
    std::int64_t d = 0;
    for (const sim::Link* l : fab->net().links()) d += l->fault_drops();
    return d;
  }
  [[nodiscard]] std::int64_t sum_retransmits() const {
    std::int64_t r = 0;
    for (std::size_t h = 0; h < fab->net().host_count(); ++h) {
      r += fab->stack_at(HostId{static_cast<std::int32_t>(h)}).retransmits();
    }
    return r;
  }
};

void SoakRunner::Impl::build() {
  topo::FabricOptions fopts;
  fopts.host_bw = opts.host_bw;
  fopts.fabric_bw = opts.fabric_bw;
  fopts.prop_delay = opts.prop_delay;
  fopts.queue_limit_bytes = opts.queue_limit_bytes;

  fab = std::make_unique<harness::Fabric>(
      [&](sim::Simulator& s) {
        return topo::make_leaf_spine(s, opts.n_leaf, opts.n_spine, opts.hosts_per_leaf, fopts);
      },
      opts.seed);

  // The same engine environment the benches read (UFAB_SHARDS,
  // UFAB_SHARD_EXEC, UFAB_PROF), with an explicit shard count winning.  The
  // fault plane will pin execution to sequential epochs either way — which
  // is exactly the path the sim.forced_sequential gauge exists to expose —
  // and prof.* gauges show up in the soak's metric snapshots.
  harness::configure_engine_from_env(*fab, opts.shards);

  if (opts.observability) {
    obs::ObsOptions oo = harness::obs_options_from_env();
    // Per-packet wire events would dominate a multi-hour ring; keep the
    // recorder for control-plane history (faults, resets, migrations).
    oo.record_datapath = false;
    oo.ring_capacity = 1 << 14;
    fab->enable_observability(oo);
  }

  harness::SchemeOptions sopts;
  sopts.ufab.token_update_period = opts.token_update_period;
  sopts.transport.bounded_rtt_stats = true;
  harness::install_scheme(*fab, harness::Scheme::kUfab, sopts);
  fab->install_pair_metering(opts.meter_bucket, opts.meter_retain_buckets);
  fab->install_tenant_metering(opts.meter_bucket, opts.meter_retain_buckets);

  // Base RTT estimate for the stretched fabric: 4 hops each way plus one
  // MTU serialization at each end.  Used for recovery polling cadence only.
  const double mtu_sec = 1500.0 * 8.0 / opts.host_bw.bits_per_sec();
  rtt_est = TimeNs{8 * opts.prop_delay.ns() +
                   2 * static_cast<std::int64_t>(mtu_sec * 1e9)};

  // Tenants: one guarantee-holding VF per backlogged pair (first half of the
  // hosts sends to the second half), plus one background tenant whose pairs
  // carry the short flows.
  const int n_hosts = opts.n_leaf * opts.hosts_per_leaf;
  const int n_half = n_hosts / 2;
  UFAB_CHECK_MSG(n_half >= 1, "soak fabric needs at least 2 hosts");
  guarantee_bps = opts.host_bw.bits_per_sec() * opts.guarantee_frac;

  for (int i = 0; i < n_half; ++i) {
    const TenantId t = fab->vms().add_tenant("VF-" + std::to_string(i + 1),
                                             Bandwidth::bps(guarantee_bps));
    const VmId src = fab->vms().add_vm(t, HostId{i});
    const VmId dst = fab->vms().add_vm(t, HostId{n_half + i});
    backlog_pairs.push_back(VmPairId{src, dst});
  }
  const TenantId bg = fab->vms().add_tenant("BG", Bandwidth::bps(guarantee_bps * 0.1));
  std::vector<VmId> bg_src, bg_dst;
  for (int i = 0; i < n_half; ++i) bg_src.push_back(fab->vms().add_vm(bg, HostId{i}));
  for (int i = 0; i < n_half; ++i) {
    bg_dst.push_back(fab->vms().add_vm(bg, HostId{n_half + i}));
  }
  // Grouped by destination so hotspot episodes can aim at one victim host.
  for (int d = 0; d < n_half; ++d) {
    bg_pairs_by_dst.push_back(bg_pairs.size());
    for (int s = 0; s < n_half; ++s) {
      bg_pairs.push_back(VmPairId{bg_src[static_cast<std::size_t>(s)],
                                  bg_dst[static_cast<std::size_t>(d)]});
    }
  }

  // Work conservation reference: what the backlogged half should deliver in
  // aggregate when nothing is broken — eta-scaled host lines with slack for
  // header overhead and the background share.
  wc_reference_bps = static_cast<double>(n_half) * opts.host_bw.bits_per_sec() * 0.95 * 0.80;

  // Target sets for the episode scheduler.
  for (const sim::Switch* sw : fab->net().switches()) switch_ids.push_back(sw->id());
  for (const sim::Link* l : fab->net().links()) {
    const bool owner_is_switch =
        std::find(switch_ids.begin(), switch_ids.end(), fab->net().link_owner(l->id())) !=
        switch_ids.end();
    const bool peer_is_switch =
        std::find(switch_ids.begin(), switch_ids.end(), l->peer()->id()) != switch_ids.end();
    if (owner_is_switch && peer_is_switch) trunk_links.push_back(l->id());
  }
  UFAB_CHECK_MSG(!trunk_links.empty(), "leaf-spine fabric with no trunk links?");

  plane = std::make_unique<faults::FaultPlane>(*fab, opts.seed + 1000);
  scheduler = std::make_unique<EpisodeScheduler>(opts.seed, opts.episodes);
  scheduler->generate(opts.duration, static_cast<int>(trunk_links.size()),
                      static_cast<int>(switch_ids.size()), n_half);
  if (fab->observability() != nullptr) plane->attach_obs(*fab->observability());
  scheduler->compile(*plane, trunk_links, switch_ids);
  plane->arm();

  dirty = scheduler->dirty_intervals(opts.recovery_allowance);

  slo = std::make_unique<SloTracker>(opts.window, guarantee_bps, wc_reference_bps,
                                     opts.csv_path);
  auditor = std::make_unique<InvariantAuditor>(*fab, opts.audit);
  flows_rng = Rng{opts.seed}.fork("soak-flows");
  mean_flow_gap_sec = 1.0 / std::max(opts.flows_per_sec, 1e-3);
  prev_pair_bytes.assign(backlog_pairs.size(), 0);

  if (obs::Obs* o = fab->observability(); o != nullptr && o->enabled()) {
    auto& m = o->metrics();
    m.gauge_fn("soak.invariant_violations", {},
               [this] { return static_cast<double>(auditor->violation_count()); });
    m.gauge_fn("soak.windows", {}, [this] { return static_cast<double>(slo->windows()); });
    m.gauge_fn("soak.violation_seconds", {}, [this] { return slo->violation_seconds(); });
  }
}

void SoakRunner::Impl::schedule_workload() {
  for (const VmPairId pair : backlog_pairs) {
    fab->keep_backlogged(pair, TimeNs::zero(), opts.duration, opts.backlog_chunk);
  }
  // Background short flows: FCT probes for the SLO tracker.  Lazy chain (one
  // pending arrival at a time) — the engine runs sequential epochs under the
  // fault plane, so in-event draws are deterministic.
  fab->sim().at(TimeNs{1'000'000}, [this] { flow_arrival(); });

  // Deliveries: user_tag 1 marks an SLO-tracked short flow.
  fab->add_delivery_listener([this](const transport::Message& msg, TimeNs at) {
    if (msg.user_tag == 1) slo->record_fct_us((at - msg.created_at).us());
  });
}

void SoakRunner::Impl::schedule_traffic_episodes() {
  Rng rng = Rng{opts.seed}.fork("soak-bursts");
  for (const Episode& ep : scheduler->episodes()) {
    if (ep.kind != EpisodeKind::kTrafficBurst && ep.kind != EpisodeKind::kHotspot) continue;
    const std::int64_t span = std::max<std::int64_t>((ep.end - ep.start).ns(), 1);
    for (int j = 0; j < ep.aux; ++j) {
      const TimeNs at = ep.start + TimeNs{static_cast<std::int64_t>(
                                       rng.uniform() * static_cast<double>(span))};
      std::size_t pick;
      if (ep.kind == EpisodeKind::kHotspot) {
        // All burst flows converge on one victim destination host.
        const std::size_t base =
            bg_pairs_by_dst[static_cast<std::size_t>(ep.target) % bg_pairs_by_dst.size()];
        const std::size_t per_dst = bg_pairs.size() / bg_pairs_by_dst.size();
        pick = base + rng.below(per_dst);
      } else {
        pick = rng.below(bg_pairs.size());
      }
      const double size_draw =
          rng.exponential(static_cast<double>(opts.flow_bytes_mean) * ep.intensity);
      const std::int64_t bytes =
          std::clamp<std::int64_t>(static_cast<std::int64_t>(size_draw), 1000,
                                   opts.flow_bytes_mean * 20);
      const VmPairId pair = bg_pairs[pick];
      fab->sim().at(at, [this, pair, bytes] {
        if (fab->sim().now() < opts.duration) fab->send(pair, bytes, /*user_tag=*/2);
      });
    }
  }
}

void SoakRunner::Impl::flow_arrival() {
  if (fab->sim().now() >= opts.duration) return;
  const VmPairId pair = bg_pairs[flows_rng.below(bg_pairs.size())];
  const double size_draw = flows_rng.exponential(static_cast<double>(opts.flow_bytes_mean));
  const std::int64_t bytes = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(size_draw), 1000, opts.flow_bytes_mean * 20);
  fab->send(pair, bytes, /*user_tag=*/1);
  const double gap = flows_rng.exponential(mean_flow_gap_sec);
  fab->sim().after(TimeNs{static_cast<std::int64_t>(gap * 1e9)}, [this] { flow_arrival(); });
}

bool SoakRunner::Impl::window_clean(TimeNs start) const {
  const TimeNs end = start + opts.window;
  for (const auto& iv : dirty) {
    if (iv.first >= end) break;
    if (iv.second > start) return false;
  }
  return true;
}

int SoakRunner::Impl::active_episodes(TimeNs start) const {
  const TimeNs end = start + opts.window;
  int n = 0;
  for (const Episode& ep : scheduler->episodes()) {
    if (ep.start >= end) break;
    if (ep.end > start || (ep.start >= start && ep.start < end)) ++n;
  }
  return n;
}

void SoakRunner::Impl::start_windows() {
  slo->begin_window(TimeNs::zero(), window_clean(TimeNs::zero()),
                    active_episodes(TimeNs::zero()));
  fab->schedule_global(opts.window, [this] { window_tick(); });
}

void SoakRunner::Impl::window_tick() {
  const TimeNs now = fab->sim().now();

  // Close the window that just ended.
  std::int64_t delivered = 0;
  int below = 0;
  for (std::size_t i = 0; i < backlog_pairs.size(); ++i) {
    const RateMeter* m = fab->pair_meter(backlog_pairs[i]);
    const std::int64_t total = m != nullptr ? m->total_bytes() : 0;
    const std::int64_t delta = total - prev_pair_bytes[i];
    prev_pair_bytes[i] = total;
    delivered += delta;
    const double bps = static_cast<double>(delta) * 8.0 / opts.window.sec();
    if (bps < guarantee_bps * 0.95) ++below;
  }
  const std::int64_t drops = sum_drops();
  const std::int64_t fault_drops = sum_fault_drops();
  const std::int64_t retx = sum_retransmits();
  slo->close_window(static_cast<double>(delivered) * 8.0 / opts.window.sec(), below,
                    drops - prev_drops, fault_drops - prev_fault_drops, retx - prev_retx);
  prev_drops = drops;
  prev_fault_drops = fault_drops;
  prev_retx = retx;

  auditor->checkpoint();

  if (now + opts.window <= opts.duration) {
    slo->begin_window(now, window_clean(now), active_episodes(now));
    fab->schedule_global(now + opts.window, [this] { window_tick(); });
  }
}

bool SoakRunner::Impl::all_registered() {
  for (const VmPairId pair : backlog_pairs) {
    const HostId src = fab->vms().host_of(pair.src);
    auto& agent = fab->stack_as<edge::EdgeAgent>(src);
    edge::UfabConnection* conn = agent.ufab_connection(pair);
    if (conn == nullptr || !conn->registered) return false;
  }
  return true;
}

void SoakRunner::Impl::poll_recovery(TimeNs reset_at, int tries) {
  if (all_registered()) {
    slo->record_recovery_rtts(static_cast<double>(tries));
    ++recoveries;
    return;
  }
  if (tries >= opts.recovery_poll_max_rtts) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "edges not re-registered within %d RTTs of reset at %.3fs", tries,
                  reset_at.sec());
    auditor->report("reregistration", buf);
    return;
  }
  fab->sim().after(rtt_est, [this, reset_at, tries] { poll_recovery(reset_at, tries + 1); });
}

void SoakRunner::Impl::schedule_recovery_polls() {
  for (const Episode& ep : scheduler->episodes()) {
    if (ep.kind != EpisodeKind::kSwitchReset) continue;
    const TimeNs start = ep.start;
    fab->sim().at(start + rtt_est, [this, start] { poll_recovery(start, 1); });
  }
}

SoakReport SoakRunner::Impl::finish(double wall_seconds) {
  slo->finish();

  SoakReport r;
  r.windows = slo->windows();
  r.clean_windows = slo->clean_windows();
  r.violation_seconds = slo->violation_seconds();
  r.fct_p99_us_clean = slo->clean_fct_us().empty() ? 0.0 : slo->clean_fct_us().quantile(0.99);
  r.wc_gap_mean = slo->clean_wc_gap().mean();
  r.recovery_p99_rtts =
      slo->recovery_rtts().empty() ? 0.0 : slo->recovery_rtts().quantile(0.99);
  r.fct_samples = slo->all_fct_us().count();
  slo->check(opts.slo, &r.slo_breaches);

  r.faults = plane->counters();
  r.episodes_total = static_cast<int>(scheduler->episodes().size());
  r.recoveries_measured = recoveries;

  r.invariant_violations = auditor->violation_count();
  r.violations = auditor->violations();
  r.peak_packets_in_flight = auditor->peak_packets_in_flight();
  r.peak_pending_events = auditor->peak_pending_events();

  for (const VmPairId pair : backlog_pairs) {
    if (const RateMeter* m = fab->pair_meter(pair); m != nullptr) {
      r.meter_buckets_retained_max = std::max(r.meter_buckets_retained_max,
                                              m->retained_buckets());
    }
  }
  for (std::size_t h = 0; h < fab->net().host_count(); ++h) {
    const auto& stack = fab->stack_at(HostId{static_cast<std::int32_t>(h)});
    r.rtt_exact_samples += static_cast<std::uint64_t>(stack.rtt_samples_us().count());
    r.rtt_stream_samples += stack.rtt_stream_us().count();
  }

  r.events = fab->sim().events_processed();
  r.sim_seconds = fab->sim().now().sec();
  r.wall_seconds = wall_seconds;
  r.forced_sequential = fab->sim().sequential_reasons();
  return r;
}

SoakRunner::SoakRunner(SoakOptions opts) : impl_(std::make_unique<Impl>(std::move(opts))) {}
SoakRunner::~SoakRunner() = default;

SoakReport SoakRunner::run() {
  Impl& im = *impl_;
  UFAB_CHECK_MSG(im.fab == nullptr, "SoakRunner::run called twice");
  const auto wall_start = std::chrono::steady_clock::now();

  im.build();
  im.schedule_workload();
  im.schedule_traffic_episodes();
  im.schedule_recovery_polls();
  im.start_windows();

  UFAB_LOG_INFO("soak: seed=%llu duration=%.1fs window=%.3fs episodes=%d",
                static_cast<unsigned long long>(im.opts.seed), im.opts.duration.sec(),
                im.opts.window.sec(), static_cast<int>(im.scheduler->episodes().size()));

  TimeNs until = im.opts.duration + im.opts.drain_grace;
  im.fab->sim().run_until(until);
  // A drain that outlasts the grace (an episode's backlog still crossing the
  // fabric at the horizon) is not a leak: keep draining one window at a time,
  // up to four graces, and let final_audit flag what is left after that.
  const TimeNs drain_limit = im.opts.duration + 4 * im.opts.drain_grace;
  while (im.auditor->packets_in_flight() != 0 && until < drain_limit) {
    until = std::min(until + im.opts.window, drain_limit);
    im.fab->sim().run_until(until);
  }
  im.auditor->final_audit();

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return im.finish(wall);
}

}  // namespace ufab::soak
