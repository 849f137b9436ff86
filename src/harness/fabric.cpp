#include "src/harness/fabric.hpp"

#include <algorithm>
#include <string>

#include "src/core/assert.hpp"
#include "src/core/log.hpp"

namespace ufab::harness {

Fabric::~Fabric() {
  if (log_clock_installed_) set_log_clock({});
}

void Fabric::configure_sharding(int shards, sim::ShardExec exec) {
  partition_ = topo::partition_network(*net_, shards);
  sim_.configure_shards(partition_.shards, partition_.lookahead, exec);
  // Cut links hand their deliveries to the peer shard's mailbox instead of
  // scheduling locally.
  for (const LinkId lid : partition_.cut_links) {
    net_->link(lid)->set_cross_shard_dst(
        partition_.link_dst_shard.at(static_cast<std::size_t>(lid.value())));
  }
}

obs::Obs& Fabric::enable_observability(obs::ObsOptions opts) {
  UFAB_CHECK_MSG(obs_ == nullptr, "enable_observability called twice");
  obs_ = std::make_unique<obs::Obs>(std::move(opts));
  if (!obs_->enabled()) return *obs_;

  // Exported track labels use the fabric's real entity names.
  obs_->set_track_namer([this](const obs::Track& t) -> std::string {
    switch (t.kind) {
      case obs::TrackKind::kHost:
        return net_->host(HostId{t.id}).name();
      case obs::TrackKind::kSwitch: {
        const std::string& sw = net_->switch_at(NodeId{t.id}).name();
        return t.sub >= 0 ? sw + "/port-" + std::to_string(t.sub) : sw;
      }
      case obs::TrackKind::kTenant:
        return vms_.tenant_name(TenantId{t.id});
      case obs::TrackKind::kLink: {
        const sim::Link* l = net_->link(LinkId{t.id});
        return l != nullptr ? l->name() : "link-" + std::to_string(t.id);
      }
      case obs::TrackKind::kFabric:
        break;
    }
    return "fabric";
  });

  // Log lines get simulation-time stamps for the fabric's lifetime.
  set_log_clock([this] { return sim_.now(); });
  log_clock_installed_ = true;

  // Wire-level hooks on every link and switch (host NIC links included).
  for (sim::Link* l : net_->links()) l->set_obs(obs_.get());
  for (sim::Switch* sw : net_->switches()) sw->set_obs(obs_.get());
  for (auto& stack : stacks_) {
    if (stack != nullptr) stack->attach_obs(*obs_);
  }
  attach_obs_to_cores();

  // Fabric-wide pull gauges.
  auto& m = obs_->metrics();
  m.gauge_fn("sim.events_processed", {},
             [this] { return static_cast<double>(sim_.events_processed()); });
  m.gauge_fn("sim.now_us", {}, [this] { return static_cast<double>(sim_.now().ns()) / 1e3; });
  // One row per reason the engine was pinned to sequential epochs — reasons
  // can arrive after enable_observability (the fault plane, late workload
  // setup), so the rows materialize at snapshot time via a collector.
  m.add_collector([this](obs::MetricRegistry& reg) {
    for (const std::string& r : sim_.sequential_reasons()) {
      reg.gauge("sim.forced_sequential", {{"reason", r}})->set(1.0);
    }
  });
  m.gauge_fn("fabric.total_drops", {}, [this] {
    std::int64_t drops = 0;
    for (const sim::Link* l : net_->links()) drops += l->drops() + l->fault_drops();
    for (const sim::Switch* sw : net_->switches()) drops += sw->no_route_drops();
    return static_cast<double>(drops);
  });
  m.gauge_fn("fabric.max_queue_bytes", {}, [this] {
    std::int64_t worst = 0;
    for (const sim::Link* l : net_->links()) worst = std::max(worst, l->max_queue_bytes());
    return static_cast<double>(worst);
  });

  // Per-tenant guarantee / work-conservation gauges.  A collector (re-run at
  // each snapshot) handles tenants that join after observability is enabled;
  // values are pulled from the tenant meters, so nothing is recorded between
  // snapshots and determinism is untouched.
  m.add_collector([this](obs::MetricRegistry& reg) {
    for (std::size_t ti = 0; ti < vms_.tenant_count(); ++ti) {
      const TenantId tenant{static_cast<std::int32_t>(ti)};
      const obs::Labels labels{{"tenant", vms_.tenant_name(tenant)}};
      // Aggregate hose guarantee: per-VM guarantee times the tenant's VMs.
      const double agg_gbps = vms_.tenant_guarantee(tenant).bits_per_sec() / 1e9 *
                              static_cast<double>(vms_.vms_of(tenant).size());
      reg.gauge("tenant.guarantee_gbps", labels)->set(agg_gbps);
      const RateMeter* meter = tenant_meter(tenant);
      double delivered_gbps = 0.0;
      if (meter != nullptr && sim_.now().ns() > 0) {
        delivered_gbps = static_cast<double>(meter->total_bytes()) * 8.0 /
                         static_cast<double>(sim_.now().ns());
      }
      reg.gauge("tenant.delivered_gbps", labels)->set(delivered_gbps);
      reg.gauge("tenant.guarantee_satisfaction", labels)
          ->set(agg_gbps > 0.0 ? delivered_gbps / agg_gbps : 0.0);
    }
  });

  // Per-shard engine counters.  A collector (not direct gauge_fn) so the
  // gauges appear even when sharding is configured after observability, and
  // only for actually-sharded runs.
  m.add_collector([this](obs::MetricRegistry& reg) {
    if (sim_.shard_count() <= 1) return;
    for (int s = 0; s < sim_.shard_count(); ++s) {
      const obs::Labels labels{{"shard", std::to_string(s)}};
      reg.gauge("sim.shard.events_processed", labels)
          ->set(static_cast<double>(sim_.shard_events_processed(s)));
      reg.gauge("sim.shard.mailbox_crossings", labels)
          ->set(static_cast<double>(sim_.shard_crossings_out(s)));
      reg.gauge("sim.shard.barrier_wait_ns", labels)
          ->set(static_cast<double>(sim_.shard_barrier_wait_ns(s)));
      reg.gauge("sim.shard.pool_in_use_hwm", labels)
          ->set(static_cast<double>(sim_.shard_pool(s).in_use_high_water()));
      reg.gauge("sim.shard.mailbox_drains", labels)
          ->set(static_cast<double>(sim_.shard_outbox_drains(s)));
      reg.gauge("sim.shard.mailbox_max_batch", labels)
          ->set(static_cast<double>(sim_.shard_outbox_max_batch(s)));
    }
  });

  // Engine self-profiling gauges (prof.*), materialized only when the
  // profiling plane is attached (UFAB_PROF >= 1).  Pull-only, like every
  // other gauge here: nothing is recorded between snapshots.
  m.add_collector([this](obs::MetricRegistry& reg) {
    const obs::Profiler* p = sim_.profiler();
    if (p == nullptr) return;
    const obs::ProfDerived d = p->derived(sim_.shard_count());
    reg.gauge("prof.level", {})->set(static_cast<double>(p->level()));
    reg.gauge("prof.stall_fraction", {})->set(d.stall_fraction);
    reg.gauge("prof.shard_imbalance", {})->set(d.shard_imbalance);
    reg.gauge("prof.busy_us_total", {})->set(d.busy_ns_total / 1e3);
    reg.gauge("prof.stall_us_total", {})->set(d.stall_ns_total / 1e3);
    reg.gauge("prof.epochs", {})->set(static_cast<double>(p->epochs()));
    reg.gauge("prof.windows", {})->set(static_cast<double>(p->windows()));
    std::uint64_t crossings = 0;
    for (int s = 0; s < sim_.shard_count(); ++s) crossings += sim_.shard_crossings_out(s);
    reg.gauge("prof.crossings_injected", {})->set(static_cast<double>(crossings));
    reg.gauge("prof.handoff_max_batch", {})
        ->set(static_cast<double>(sim_.handoff_max_batch()));
    // Epoch-length distribution: one labeled row per occupied log2 bucket
    // ("epoch spanned [2^b, 2^{b+1}) ns of simulated time, N times").
    const auto& hist = p->epoch_len_hist();
    for (std::size_t b = 0; b < hist.size(); ++b) {
      if (hist[b] == 0) continue;
      reg.gauge("prof.epoch_len_ns", {{"log2", std::to_string(b)}})
          ->set(static_cast<double>(hist[b]));
    }
    for (int s = 0; s < sim_.shard_count(); ++s) {
      const std::string shard_label = std::to_string(s);
      reg.gauge("prof.busy_us", {{"shard", shard_label}})
          ->set(d.busy_ns_per_shard[static_cast<std::size_t>(s)] / 1e3);
      reg.gauge("prof.queue_samples", {{"shard", shard_label}})
          ->set(static_cast<double>(p->samples_taken(s)));
      const obs::ProfSlice& sl = p->slice(s);
      for (int c = 0; c < obs::kProfCatCount; ++c) {
        if (sl.count[static_cast<std::size_t>(c)] == 0) continue;
        const obs::Labels labels{{"shard", shard_label},
                                 {"scope", obs::to_string(static_cast<obs::ProfCat>(c))}};
        reg.gauge("prof.scope_us", labels)
            ->set(p->scope_ns(s, static_cast<obs::ProfCat>(c)) / 1e3);
        reg.gauge("prof.scope_count", labels)
            ->set(static_cast<double>(sl.count[static_cast<std::size_t>(c)]));
      }
    }
  });
  return *obs_;
}

void Fabric::attach_obs_to_cores() {
  // Idempotent: only agents added since the last attach are wired up, in the
  // per-switch port order instrument_cores() created them.
  std::size_t seen = 0;
  for (sim::Switch* sw : net_->switches()) {
    auto it = agents_by_switch_.find(sw->id().value());
    if (it == agents_by_switch_.end()) continue;
    for (std::size_t port = 0; port < it->second.size(); ++port) {
      telemetry::CoreAgent* agent = it->second[port];
      if (++seen <= cores_with_obs_) continue;
      const obs::Track track =
          obs::Track::switch_port(sw->id(), static_cast<std::int32_t>(port));
      agent->set_obs(obs_.get(), track);
      const obs::Labels labels{{"switch", sw->name()}, {"port", std::to_string(port)}};
      auto& m = obs_->metrics();
      m.gauge_fn("core.phi_total", labels, [agent] { return agent->phi_total(); });
      m.gauge_fn("core.window_total", labels, [agent] { return agent->window_total(); });
      m.gauge_fn("core.active_pairs", labels,
                 [agent] { return static_cast<double>(agent->active_pairs()); });
      m.gauge_fn("core.fp_omissions", labels,
                 [agent] { return static_cast<double>(agent->false_positive_omissions()); });
      m.gauge_fn("core.resets", labels,
                 [agent] { return static_cast<double>(agent->resets()); });
    }
  }
  cores_with_obs_ = seen;
}

obs::MetricsSnapshot Fabric::metrics_snapshot() {
  UFAB_CHECK_MSG(obs_ != nullptr, "metrics_snapshot requires enable_observability");
  return obs_->metrics().snapshot();
}

void Fabric::write_trace_json(const std::string& path) {
  UFAB_CHECK_MSG(obs_ != nullptr, "write_trace_json requires enable_observability");
  obs_->set_profiler(sim_.profiler(), sim_.shard_count());
  obs_->write_chrome_trace_file(path);
}

void Fabric::install_pair_metering(TimeNs bucket, std::size_t retain_buckets) {
  pair_meters_by_host_.resize(net_->host_count());
  for (std::size_t h = 0; h < stacks_.size(); ++h) {
    if (stacks_[h] == nullptr) continue;
    stacks_[h]->add_rx_tap([this, bucket, retain_buckets, h](const sim::Packet& pkt) {
      auto& per_host = pair_meters_by_host_[h];
      auto [it, inserted] = per_host.try_emplace(pkt.pair.key(), nullptr);
      if (inserted) it->second = std::make_unique<RateMeter>(bucket, retain_buckets);
      it->second->add(sim_.now(), pkt.payload);
    });
  }
}

RateMeter* Fabric::pair_meter(VmPairId pair) {
  // A pair's payload is delivered (and therefore metered) at exactly one
  // place: the destination VM's host.
  if (pair_meters_by_host_.empty()) return nullptr;
  const HostId dst = vms_.host_of(pair.dst);
  auto& per_host = pair_meters_by_host_.at(static_cast<std::size_t>(dst.value()));
  auto it = per_host.find(pair.key());
  return it == per_host.end() ? nullptr : it->second.get();
}

void Fabric::install_tenant_metering(TimeNs bucket, std::size_t retain_buckets) {
  tenant_meters_by_host_.resize(net_->host_count());
  for (std::size_t h = 0; h < stacks_.size(); ++h) {
    if (stacks_[h] == nullptr) continue;
    stacks_[h]->add_rx_tap([this, bucket, retain_buckets, h](const sim::Packet& pkt) {
      auto& per_host = tenant_meters_by_host_[h];
      auto [it, inserted] = per_host.try_emplace(pkt.tenant.value(), nullptr);
      if (inserted) it->second = std::make_unique<RateMeter>(bucket, retain_buckets);
      it->second->add(sim_.now(), pkt.payload);
    });
  }
}

RateMeter* Fabric::tenant_meter(TenantId tenant) {
  // A tenant receives at many hosts: merge the per-host meters on demand.
  std::unique_ptr<RateMeter> merged;
  for (auto& per_host : tenant_meters_by_host_) {
    auto it = per_host.find(tenant.value());
    if (it == per_host.end()) continue;
    if (merged == nullptr) merged = std::make_unique<RateMeter>(it->second->bucket_width());
    merged->merge_from(*it->second);
  }
  if (merged == nullptr) return nullptr;
  auto& slot = merged_tenant_[tenant.value()];
  slot = std::move(merged);
  return slot.get();
}

std::uint64_t Fabric::send(VmPairId pair, std::int64_t bytes, std::uint64_t user_tag) {
  const HostId src = vms_.host_of(pair.src);
  // Home the send on the source host's shard: the events it triggers (NIC
  // kicks, pacing wake-ups, loopback deliveries) must live where the host's
  // transport state lives.
  const auto scope = sim_.scoped(shard_of_host(src));
  transport::Message msg;
  msg.pair = pair;
  msg.tenant = vms_.tenant_of(pair.src);
  msg.size_bytes = bytes;
  msg.created_at = sim_.now();
  msg.user_tag = user_tag;
  return stack_at(src).send_message(msg);
}

void Fabric::keep_backlogged(VmPairId pair, TimeNs start, TimeNs stop,
                             std::int64_t chunk_bytes) {
  // Top-up loop: whenever the send queue dips below two chunks, enqueue one
  // more, so the pair always has demand without unbounded queue growth.  The
  // tick lives on the sending host's shard (follow-ups inherit it).
  schedule_on_host(vms_.host_of(pair.src), start,
                   [this, pair, stop, chunk_bytes] { top_up_tick(pair, stop, chunk_bytes); });
}

void Fabric::top_up_tick(VmPairId pair, TimeNs stop, std::int64_t chunk_bytes) {
  if (sim_.now() >= stop) return;
  const HostId src = vms_.host_of(pair.src);
  auto& stack = stack_at(src);
  transport::Connection* conn = stack.find_connection(pair);
  std::int64_t queued = conn != nullptr ? conn->queued_bytes() : 0;
  while (queued < 2 * chunk_bytes) {
    send(pair, chunk_bytes);
    queued += chunk_bytes;
  }
  // Re-check after one chunk's drain time at the NIC's line rate: at most one
  // chunk can leave in that time, so the two-chunk refill never runs dry.
  sim_.after(net_->host(src).nic().capacity().tx_time(chunk_bytes),
             [this, pair, stop, chunk_bytes] { top_up_tick(pair, stop, chunk_bytes); });
}

void Fabric::sample_queues(TimeNs period, TimeNs until, PercentileTracker& out) {
  // The sampler reads every link's queue depth across all shards mid-run;
  // that is only race-free when shards execute one at a time.
  if (sim_.shard_count() > 1) sim_.require_sequential("queue-sampling");
  sim_.after(period, [this, period, until, &out] { sample_queues_tick(period, until, &out); });
}

void Fabric::sample_queues_tick(TimeNs period, TimeNs until, PercentileTracker* out) {
  for (const sim::Link* l : net_->links()) out->add(static_cast<double>(l->queue_bytes()));
  if (sim_.now() + period <= until) {
    sim_.after(period, [this, period, until, out] { sample_queues_tick(period, until, out); });
  }
}

}  // namespace ufab::harness
