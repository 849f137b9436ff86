// Experiment bundle: simulator + network + tenants + agents + metering.
//
// Fabric owns everything a testbed run needs and wires it together: the
// event engine, a topology, the VM map, uFAB-C agents on every switch egress,
// and one transport stack per host.  Benches and tests build a Fabric, add
// tenants and traffic, then run and read the meters.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/rng.hpp"
#include "src/harness/vm_map.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/rate_meter.hpp"
#include "src/telemetry/core_agent.hpp"
#include "src/topo/network.hpp"
#include "src/topo/partition.hpp"
#include "src/transport/transport.hpp"

namespace ufab::harness {

class Fabric {
 public:
  using Builder = std::function<std::unique_ptr<topo::Network>(sim::Simulator&)>;

  explicit Fabric(const Builder& build, std::uint64_t seed = 1)
      : rng_(seed), net_(build(sim_)) {
    stacks_.resize(net_->host_count());
  }

  ~Fabric();

  /// Partitions the topology across engine shards (see DESIGN.md §9).  Call
  /// right after construction, before any scheme, source, or meter
  /// schedules events.  `shards` is clamped to what the topology supports;
  /// the schedule is the same for every shard count, so serial and sharded
  /// runs are comparable byte-for-byte.
  void configure_sharding(int shards, sim::ShardExec exec = sim::ShardExec::kAuto);

  /// The shard a node / host was assigned to (0 when not sharded).
  [[nodiscard]] int shard_of_node(NodeId n) const {
    return partition_.node_shard.empty() ? 0 : partition_.shard_of(n);
  }
  [[nodiscard]] int shard_of_host(HostId h) const { return shard_of_node(net_->node_of(h)); }
  [[nodiscard]] const topo::Partition& partition() const { return partition_; }

  /// Schedules `fn` at `t` homed on `host`'s shard, so setup-time work lands
  /// in the same calendar regardless of the shard count.
  template <typename F>
  void schedule_on_host(HostId host, TimeNs t, F&& fn) {
    const auto scope = sim_.scoped(shard_of_host(host));
    sim_.at(t, std::forward<F>(fn));
  }

  /// Attaches a uFAB-C agent to every switch egress port.
  void instrument_cores(const telemetry::CoreConfig& cfg = {}) {
    for (sim::Switch* sw : net_->switches()) {
      // Agent timers belong to the switch's shard.
      const auto scope = sim_.scoped(shard_of_node(sw->id()));
      auto agents = telemetry::instrument_switch(sim_, *sw, cfg);
      auto& of_switch = agents_by_switch_[sw->id().value()];
      for (auto& a : agents) {
        of_switch.push_back(a.get());
        core_agents_.push_back(std::move(a));
      }
    }
    if (obs_ != nullptr && obs_->enabled()) attach_obs_to_cores();
  }

  /// The uFAB-C agents of one switch (empty if not instrumented). Fault
  /// injection uses this to reboot a whole switch's register state at once.
  [[nodiscard]] const std::vector<telemetry::CoreAgent*>& core_agents_of(NodeId sw) const {
    static const std::vector<telemetry::CoreAgent*> kNone;
    auto it = agents_by_switch_.find(sw.value());
    return it == agents_by_switch_.end() ? kNone : it->second;
  }

  /// Installs a transport stack (takes ownership). One per host.
  template <typename StackT>
  StackT& adopt_stack(HostId host, std::unique_ptr<StackT> stack) {
    StackT& ref = *stack;
    ref.set_message_sink(&sink_mux_);
    stacks_.at(static_cast<std::size_t>(host.value())) = std::move(stack);
    if (obs_ != nullptr && obs_->enabled()) ref.attach_obs(*obs_);
    return ref;
  }

  /// Message-delivery listeners (workload FCT recording, application logic).
  using DeliveryListener = std::function<void(const transport::Message&, TimeNs)>;
  void add_delivery_listener(DeliveryListener fn) {
    sink_mux_.listeners.push_back(std::move(fn));
  }

  [[nodiscard]] transport::TransportStack& stack_at(HostId host) {
    return *stacks_.at(static_cast<std::size_t>(host.value()));
  }
  template <typename StackT>
  [[nodiscard]] StackT& stack_as(HostId host) {
    return static_cast<StackT&>(stack_at(host));
  }

  /// Per-VM-pair delivered-byte meters (install before traffic starts).
  /// `retain_buckets` > 0 caps each meter to that many trailing buckets
  /// (bounded-memory mode for long soaks); 0 keeps the full series.
  void install_pair_metering(TimeNs bucket, std::size_t retain_buckets = 0);
  [[nodiscard]] RateMeter* pair_meter(VmPairId pair);
  /// Per-tenant delivered-byte meters; `retain_buckets` as above.
  void install_tenant_metering(TimeNs bucket, std::size_t retain_buckets = 0);
  [[nodiscard]] RateMeter* tenant_meter(TenantId tenant);

  /// Sends a message from a VM pair through the source host's stack.
  std::uint64_t send(VmPairId pair, std::int64_t bytes, std::uint64_t user_tag = 0);

  /// Keeps `pair` saturated between [start, stop): every chunk drain time at
  /// the source NIC's line rate, tops the send queue up to two chunks.
  void keep_backlogged(VmPairId pair, TimeNs start, TimeNs stop,
                       std::int64_t chunk_bytes = 1'000'000);

  /// Samples every link's queue into `out` each `period` until `until`.
  void sample_queues(TimeNs period, TimeNs until, PercentileTracker& out);

  /// Schedules a callback that touches state across the whole fabric —
  /// killing a set of links, reading every switch's registers.  Under a
  /// multi-shard engine this forces sequential epoch execution, because no
  /// single shard may safely reach across the partition mid-epoch.  The
  /// schedule stays identical, but what the callback reads need not: it runs
  /// mid-window on its shard while the others stand at their last window
  /// boundary (DESIGN.md §9.4).  Link telemetry reads stay passive.
  template <typename F>
  void schedule_global(TimeNs t, F&& fn) {
    if (sim_.shard_count() > 1) sim_.require_sequential("global-callback");
    sim_.at(t, std::forward<F>(fn));
  }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] topo::Network& net() { return *net_; }
  [[nodiscard]] VmMap& vms() { return vms_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const std::vector<std::unique_ptr<telemetry::CoreAgent>>& core_agents() const {
    return core_agents_;
  }

  // --- observability plane ---
  /// Creates the fabric's Obs context and attaches it to every link, switch,
  /// core agent, and transport stack — existing ones now, later ones as they
  /// are adopted/instrumented.  Call at most once.  Passive: an enabled run
  /// is packet-for-packet identical to a disabled one.
  obs::Obs& enable_observability(obs::ObsOptions opts = {});
  /// The fabric's Obs, or nullptr when never enabled.
  [[nodiscard]] obs::Obs* observability() { return obs_.get(); }
  /// Current values of every registered metric (requires observability).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();
  /// Writes the flight recorder as Chrome trace-event JSON (requires
  /// observability); loadable in chrome://tracing or Perfetto.
  void write_trace_json(const std::string& path);

 private:
  void top_up_tick(VmPairId pair, TimeNs stop, std::int64_t chunk_bytes);
  void sample_queues_tick(TimeNs period, TimeNs until, PercentileTracker* out);
  void attach_obs_to_cores();

  struct SinkMux final : transport::MessageSink {
    std::vector<DeliveryListener> listeners;
    void on_message_delivered(const transport::Message& msg, TimeNs at) override {
      for (const auto& fn : listeners) fn(msg, at);
    }
  };

  Rng rng_;
  sim::Simulator sim_;
  std::unique_ptr<topo::Network> net_;
  VmMap vms_;
  SinkMux sink_mux_;
  std::vector<std::unique_ptr<telemetry::CoreAgent>> core_agents_;
  std::unordered_map<std::int32_t, std::vector<telemetry::CoreAgent*>> agents_by_switch_;
  std::vector<std::unique_ptr<transport::TransportStack>> stacks_;
  topo::Partition partition_;
  /// Meters are accumulated per receiving host (a host belongs to exactly one
  /// shard, so sharded runs never share a meter across threads) and merged at
  /// query time; bucket sums are order-independent, so the merged view equals
  /// the old single-map behavior.
  std::vector<std::unordered_map<std::uint64_t, std::unique_ptr<RateMeter>>>
      pair_meters_by_host_;
  std::vector<std::unordered_map<std::int32_t, std::unique_ptr<RateMeter>>>
      tenant_meters_by_host_;
  std::unordered_map<std::int32_t, std::unique_ptr<RateMeter>> merged_tenant_;
  std::unique_ptr<obs::Obs> obs_;
  std::size_t cores_with_obs_ = 0;  ///< Agents already attached (idempotence).
  bool log_clock_installed_ = false;
};

}  // namespace ufab::harness
