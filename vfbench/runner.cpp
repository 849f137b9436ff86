// One benchmark run: builds one workload through the library's public API,
// simulates its fixed horizon as fast as the engine goes, extracts the
// results, tears the fabric down, and prints one JSON object on stdout.
//
//   vfbench_run <fattree_websearch|testbed_rpc|soak_faults> --seed N
//               [--trace] [--k K] [--shards S] [--out DIR]
//
// Load is defined in simulated time, so a run is a batch job with no
// wall-clock generator to fall behind.  The engine is configured only through
// public calls; the caller clears every UFAB_* variable first.  With --trace
// the run also installs the span decorators of trace.hpp, runs the engine's
// level-1 profiler, and advances in 1 ms simulated slices to sample the
// calendar's size; its simulated outputs must equal the untraced run's.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/log.hpp"
#include "src/harness/schemes.hpp"
#include "src/soak/runner.hpp"
#include "src/stats/percentile.hpp"
#include "src/workload/apps.hpp"
#include "src/workload/sources.hpp"
#include "trace.hpp"

using namespace ufab;
using namespace ufab::time_literals;
using namespace ufab::unit_literals;

namespace {

// Simulated horizons.  Shorter than the paper benches (fig17 runs 80+40 ms,
// fig13 200+20 ms, the soak an hour) so one measured interval holds several
// runs.  The FatTree drains twice as long as it offers flows, so the
// heavy-tailed websearch flows still finish (~99% done; ~94% at 1:1).
constexpr TimeNs kFatTreeFlows = 12_ms;
constexpr TimeNs kFatTreeDrain = 24_ms;
constexpr TimeNs kRpcRun = 30_ms;
constexpr TimeNs kRpcMeasureFrom = 10_ms;
constexpr TimeNs kRpcDrain = 10_ms;
constexpr TimeNs kSoakDuration = 60_s;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  int k = 8;
  int shards = 4;
  std::string out_dir = ".";
};

/// Minimal JSON object writer (numbers at full precision, so equal values
/// print equal text and the caller can digest them).
class Json {
 public:
  Json& num(const char* key, double v) {
    this->key(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& num(const char* key, std::int64_t v) {
    this->key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& num(const char* key, std::uint64_t v) {
    this->key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& flag(const char* key, bool v) {
    this->key(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    this->key(key);
    quote(v);
    return *this;
  }
  Json& strs(const char* key, const std::vector<std::string>& vs) {
    this->key(key);
    out_ += '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out_ += ',';
      quote(vs[i]);
    }
    out_ += ']';
    return *this;
  }
  /// Embeds an already-serialized JSON value.
  Json& raw(const char* key, const std::string& json) {
    this->key(key);
    out_ += json;
    return *this;
  }
  Json& open(const char* key) {
    this->key(key);
    out_ += '{';
    first_ = true;
    return *this;
  }
  Json& close() {
    out_ += '}';
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string done() { return out_ + "}"; }

 private:
  void key(const char* k) {
    if (!first_) out_ += ',';
    first_ = false;
    quote(k);
    out_ += ':';
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_ = "{";
  bool first_ = true;
};

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Wall-clock marks of one run, in steady-clock ns.
struct Marks {
  std::int64_t start = 0;
  std::int64_t built = 0;        ///< Topology and FIBs compiled.
  std::int64_t partitioned = 0;  ///< configure_sharding returned.
  std::int64_t installed = 0;    ///< Scheme, metering (and obs) installed.
  std::int64_t setup_done = 0;   ///< Tenants, pairs and workload built.
  std::int64_t run_done = 0;
  std::int64_t report_done = 0;  ///< Results extracted.
  std::int64_t export_s_ns = 0;  ///< Part of report: observability export.
  std::int64_t end = 0;          ///< Fabric destroyed.
  double run_cpu_s = 0;
};

void write_timing(Json& j, const Marks& m, bool separable_setup) {
  j.open("timing")
      .num("wall_s", secs(m.end - m.start))
      .num("setup_s", secs(m.setup_done - m.start))
      .num("run_s", secs(m.run_done - m.setup_done))
      .num("run_cpu_s", m.run_cpu_s)
      .num("report_s", secs(m.report_done - m.run_done))
      .num("export_s", secs(m.export_s_ns))
      .num("teardown_s", secs(m.end - m.report_done));
  if (separable_setup) {
    j.num("topo.build_s", secs(m.built - m.start))
        .num("topo.partition_s", secs(m.partitioned - m.built))
        .num("harness.install_s", secs(m.installed - m.partitioned))
        .num("workload.gen_s", secs(m.setup_done - m.installed));
  }
  j.close();
}

void write_engine(Json& j, const sim::Simulator& sim) {
  j.open("engine")
      .num("shard_count", static_cast<std::int64_t>(sim.shard_count()))
      .flag("threaded", sim.threaded())
      .flag("canonical_order", sim.canonical_order())
      .flag("fused_links", sim.fused_links())
      .strs("sequential_reasons", sim.sequential_reasons())
      .close();
}

/// Runs the engine to `horizon` and marks the run phase: in one call
/// untraced, in 1 ms slices when traced (sampling the calendar's size at each
/// slice edge).
void run_phase(sim::Simulator& sim, TimeNs horizon, bool traced, Marks& m,
               std::size_t& pending_max) {
  const double cpu0 = cpu_seconds();
  if (!traced) {
    sim.run_until(horizon);
  } else {
    for (TimeNs t = 1_ms;; t += 1_ms) {
      t = std::min(t, horizon);
      sim.run_until(t);
      pending_max = std::max(pending_max, sim.pending());
      if (t == horizon) break;
    }
  }
  m.run_cpu_s = cpu_seconds() - cpu0;
  m.run_done = vfbench::now_ns();
}

/// The span decorators of one traced fabric (see trace.hpp).
class Tracer {
 public:
  /// Wraps every adopted stack; call after install_scheme.
  void wrap_stacks(harness::Fabric& fab) {
    for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
      stacks_.push_back(std::make_unique<vfbench::TracedStack>(
          fab.stack_at(HostId{static_cast<std::int32_t>(h)})));
    }
  }
  /// Rx taps added just before the fabric's meter taps open a span...
  void open_meter_bracket(harness::Fabric& fab) {
    for (std::size_t h = 0; h < stacks_.size(); ++h) {
      fab.stack_at(HostId{static_cast<std::int32_t>(h)}).add_rx_tap([](const sim::Packet&) {
        vfbench::span_begin();
      });
    }
  }
  /// ...and taps added just after them close it.
  void close_meter_bracket(harness::Fabric& fab) {
    for (std::size_t h = 0; h < stacks_.size(); ++h) {
      vfbench::TracedStack* ts = stacks_[h].get();
      fab.stack_at(HostId{static_cast<std::int32_t>(h)}).add_rx_tap([ts](const sim::Packet&) {
        vfbench::span_end(ts->meter);
      });
    }
  }
  /// Puts the decorators in front of the stacks and the uFAB-C agents.
  void install(harness::Fabric& fab) {
    for (std::size_t h = 0; h < stacks_.size(); ++h) {
      fab.net().host(HostId{static_cast<std::int32_t>(h)}).set_stack(stacks_[h].get());
    }
    for (sim::Switch* sw : fab.net().switches()) {
      const auto& agents = fab.core_agents_of(sw->id());
      for (std::size_t p = 0; p < agents.size(); ++p) {
        egress_.push_back(std::make_unique<vfbench::TracedEgress>(*agents[p]));
        sw->set_egress_processor(static_cast<std::int32_t>(p), egress_.back().get());
      }
    }
  }

  void write(Json& j, std::size_t pending_max) const {
    vfbench::Acc rx, pull, meter, egress;
    std::uint64_t empty = 0;
    for (const auto& s : stacks_) {
      rx.calls += s->rx.calls;
      rx.busy_ns += s->rx.busy_ns;
      pull.calls += s->pull_acc.calls;
      pull.busy_ns += s->pull_acc.busy_ns;
      meter.calls += s->meter.calls;
      meter.busy_ns += s->meter.busy_ns;
      empty += s->empty_pulls;
    }
    for (const auto& e : egress_) {
      egress.calls += e->acc.calls;
      egress.busy_ns += e->acc.busy_ns;
    }
    j.open("spans")
        .num("rx_calls", rx.calls)
        .num("rx_busy_s", secs(rx.busy_ns))
        .num("pull_calls", pull.calls)
        .num("pull_busy_s", secs(pull.busy_ns))
        .num("empty_pulls", empty)
        .num("meter_calls", meter.calls)
        .num("meter_busy_s", secs(meter.busy_ns))
        .num("probe_calls", egress.calls)
        .num("probe_busy_s", secs(egress.busy_ns))
        .num("pending_max", static_cast<std::uint64_t>(pending_max))
        .close();
  }

 private:
  std::vector<std::unique_ptr<vfbench::TracedStack>> stacks_;
  std::vector<std::unique_ptr<vfbench::TracedEgress>> egress_;
};

/// The 1 ms pair and tenant meters harness::Experiment installs; a traced run
/// brackets them with its rx taps and puts its decorators in place.
void install_meters(harness::Fabric& fab, Tracer& tracer, bool traced) {
  if (traced) {
    tracer.wrap_stacks(fab);
    tracer.open_meter_bracket(fab);
  }
  fab.install_pair_metering(1_ms);
  fab.install_tenant_metering(1_ms);
  if (traced) {
    tracer.close_meter_bracket(fab);
    tracer.install(fab);
  }
}

/// Counts every layer exposes through public getters after the run.
void write_counts(Json& j, harness::Fabric& fab) {
  sim::Simulator& sim = fab.sim();
  std::int64_t wire_bytes = 0, drops = 0, max_queue = 0, host_wire_bytes = 0;
  for (const sim::Link* l : fab.net().links()) {
    wire_bytes += l->tx_bytes_cum();
    drops += l->drops() + l->fault_drops();
    max_queue = std::max(max_queue, l->max_queue_bytes());
  }
  for (const sim::Switch* sw : fab.net().switches()) drops += sw->no_route_drops();
  std::uint64_t connections = 0, rtt_samples = 0;
  std::int64_t retransmits = 0, probes = 0, probe_bytes = 0, migrations = 0, timeouts = 0;
  for (std::size_t h = 0; h < fab.net().host_count(); ++h) {
    const HostId host{static_cast<std::int32_t>(h)};
    host_wire_bytes += fab.net().host(host).nic().tx_bytes_cum();
    transport::TransportStack& st = fab.stack_at(host);
    connections += st.connections().size();
    rtt_samples += st.rtt_sample_count();
    retransmits += st.retransmits();
    if (const auto* edge = dynamic_cast<const edge::EdgeAgent*>(&st); edge != nullptr) {
      probes += edge->probes_sent();
      probe_bytes += edge->probe_bytes_sent();
      migrations += edge->migrations();
      timeouts += edge->probe_timeouts();
    }
  }
  std::int64_t fp_omissions = 0;
  for (const auto& agent : fab.core_agents()) fp_omissions += agent->false_positive_omissions();
  std::uint64_t allocated = 0, in_use_hwm = 0, crossings = 0, shard_max = 0, shard_sum = 0;
  std::int64_t barrier_wait_ns = 0;
  for (int s = 0; s < sim.shard_count(); ++s) {
    allocated += sim.shard_pool(s).allocated();
    in_use_hwm += sim.shard_pool(s).in_use_high_water();
    crossings += sim.shard_crossings_out(s);
    barrier_wait_ns += sim.shard_barrier_wait_ns(s);
    shard_max = std::max(shard_max, sim.shard_events_processed(s));
    shard_sum += sim.shard_events_processed(s);
  }
  j.open("counts")
      .num("link.wire_bytes", wire_bytes)
      .num("link.host_wire_bytes", host_wire_bytes)
      .num("link.drops", drops)
      .num("link.max_queue_bytes", max_queue)
      .num("pool.packets_allocated", static_cast<std::uint64_t>(allocated))
      .num("pool.in_use_hwm", static_cast<std::uint64_t>(in_use_hwm))
      .num("transport.connections", connections)
      .num("transport.rtt_samples", rtt_samples)
      .num("transport.retransmits", retransmits)
      .num("ufab.probes_sent", probes)
      .num("ufab.probe_bytes", probe_bytes)
      .num("ufab.migrations", migrations)
      .num("ufab.probe_timeouts", timeouts)
      .num("telemetry.fp_omissions", fp_omissions)
      .num("shard.crossings", crossings)
      .num("shard.barrier_wait_s", secs(barrier_wait_ns))
      .num("shard.imbalance",
           shard_sum == 0 ? 0.0
                          : static_cast<double>(shard_max) * sim.shard_count() /
                                static_cast<double>(shard_sum))
      .num("shard.mailbox_flushes", sim.mailbox_flushes_total())
      .num("shard.handoff_max_batch", static_cast<std::uint64_t>(sim.handoff_max_batch()))
      .close();
}

/// The engine mode that ran and the per-layer counts; with a tracer, also its
/// spans and the engine profile.
void write_layers(Json& j, harness::Fabric& fab, const Tracer* tracer, std::size_t pending_max) {
  write_engine(j, fab.sim());
  write_counts(j, fab);
  if (tracer != nullptr) {
    tracer->write(j, pending_max);
    j.raw("profile", fab.sim().profile_json());
  }
}

/// fig17's µFAB cell (1:1, load 0.5): four tenants with one VM per host,
/// three random peers per VM, open-loop Poisson websearch flows, tiered
/// propagation, observability off.
std::string fattree_websearch(const Args& a) {
  Marks m;
  Json j;
  std::size_t pending_max = 0;
  m.start = vfbench::now_ns();
  {
    const int k = a.k;
    harness::SchemeOptions sopts;
    sopts.ufab.idle_finish_timeout = TimeNs{300'000};
    topo::FabricOptions base;
    base.prop_delay = TimeNs{500};
    base.core_prop = TimeNs{5'000};
    const topo::FabricOptions fopts = harness::fabric_options_for(harness::Scheme::kUfab, base, sopts);
    auto fab = std::make_unique<harness::Fabric>(
        [&](sim::Simulator& s) { return topo::make_fat_tree(s, k, 1, fopts); }, a.seed);
    m.built = vfbench::now_ns();
    fab->configure_sharding(a.shards, sim::ShardExec::kThreads);
    m.partitioned = vfbench::now_ns();
    if (a.trace) fab->sim().enable_profiling({});
    harness::install_scheme(*fab, harness::Scheme::kUfab, sopts);
    Tracer tracer;
    install_meters(*fab, tracer, a.trace);
    m.installed = vfbench::now_ns();

    auto& vms = fab->vms();
    const double guars[4] = {1.0, 2.0, 2.0, 3.0};
    std::vector<VmPairId> pairs;
    Rng pair_rng = fab->rng().fork("pairs");
    const int hosts = static_cast<int>(fab->net().host_count());
    for (int t = 0; t < 4; ++t) {
      const TenantId tid = vms.add_tenant("T" + std::to_string(t), Bandwidth::gbps(guars[t]));
      std::vector<VmId> tvms;
      for (int h = 0; h < hosts; ++h) tvms.push_back(vms.add_vm(tid, HostId{h}));
      for (int h = 0; h < hosts; ++h) {
        for (int p = 0; p < 3; ++p) {
          int peer = static_cast<int>(pair_rng.below(static_cast<std::uint64_t>(hosts)));
          if (peer == h) peer = (peer + 1) % hosts;
          pairs.push_back(VmPairId{tvms[static_cast<std::size_t>(h)],
                                   tvms[static_cast<std::size_t>(peer)]});
        }
      }
    }
    workload::PoissonFlowGenerator::Config gcfg;
    gcfg.target_load = 0.5;
    gcfg.stop = kFatTreeFlows;
    auto gen = std::make_unique<workload::PoissonFlowGenerator>(
        *fab, pairs, workload::EmpiricalSizeDist::websearch(), gcfg, fab->rng().fork("flows"));
    m.setup_done = vfbench::now_ns();

    run_phase(fab->sim(), kFatTreeFlows + kFatTreeDrain, a.trace, m, pending_max);

    // The results fig17 prints: dissatisfaction, tail RTT, slowdown.
    const workload::FlowRecorder& rec = gen->recorder();
    PercentileTracker rtt;
    for (int h = 0; h < hosts; ++h) {
      for (const double v : fab->stack_at(HostId{h}).rtt_samples_us().sorted()) rtt.add(v);
    }
    const auto& slow = rec.slowdown();
    const double done_pct =
        rec.started() == 0 ? 0.0 : 100.0 * static_cast<double>(rec.completed()) / rec.started();
    j.open("outputs")
        .num("sim.events", fab->sim().events_processed())
        .num("workload.flows_started", static_cast<std::uint64_t>(rec.started()))
        .num("workload.flows_done_pct", done_pct)
        .num("workload.dissat_pct", rec.violation_volume_pct())
        .num("workload.rtt_p99_us", rtt.empty() ? 0.0 : rtt.percentile(99))
        .num("workload.slowdown_avg", slow.mean())
        .num("workload.slowdown_p99", slow.empty() ? 0.0 : slow.percentile(99))
        .close();
    m.report_done = vfbench::now_ns();

    write_layers(j, *fab, a.trace ? &tracer : nullptr, pending_max);
    gen.reset();
    fab.reset();
  }
  m.end = vfbench::now_ns();
  write_timing(j, m, true);
  return j.done();
}

/// fig13's high-load µFAB cell on the 8-server testbed: closed-loop Memcached
/// beside MongoDB fetches, serial engine, observability on with its
/// artifacts exported.
std::string testbed_rpc(const Args& a) {
  Marks m;
  Json j;
  std::size_t pending_max = 0;
  m.start = vfbench::now_ns();
  {
    const topo::FabricOptions fopts = harness::fabric_options_for(harness::Scheme::kUfab, {});
    auto fab = std::make_unique<harness::Fabric>(
        [&](sim::Simulator& s) { return topo::make_testbed(s, fopts); }, a.seed);
    m.built = vfbench::now_ns();
    m.partitioned = m.built;  // the default serial engine: nothing to partition
    if (a.trace) fab->sim().enable_profiling({});
    harness::install_scheme(*fab, harness::Scheme::kUfab, {});
    Tracer tracer;
    install_meters(*fab, tracer, a.trace);
    fab->enable_observability({});
    m.installed = vfbench::now_ns();

    auto& vms = fab->vms();
    const TenantId mc = vms.add_tenant("memcached", 1_Gbps);
    std::vector<VmId> mc_clients, mc_servers, mg_clients, mg_servers;
    for (int i = 0; i < 12; ++i) mc_clients.push_back(vms.add_vm(mc, HostId{i % 4}));
    for (int i = 0; i < 24; ++i) mc_servers.push_back(vms.add_vm(mc, HostId{6 + i % 2}));
    const TenantId mg = vms.add_tenant("mongodb", 1_Gbps);
    for (int i = 0; i < 24; ++i) mg_clients.push_back(vms.add_vm(mg, HostId{i % 4}));
    for (int i = 0; i < 24; ++i) mg_servers.push_back(vms.add_vm(mg, HostId{4 + i % 4}));
    auto mongo = std::make_unique<workload::RpcApp>(
        *fab, mg_clients, mg_servers, workload::RpcApp::mongodb(0_ms, kRpcRun, 9),
        fab->rng().fork("mongo"));
    auto memcached = std::make_unique<workload::RpcApp>(
        *fab, mc_clients, mc_servers, workload::RpcApp::memcached(0_ms, kRpcRun, 8),
        fab->rng().fork("mc"));
    m.setup_done = vfbench::now_ns();

    run_phase(fab->sim(), kRpcRun + kRpcDrain, a.trace, m, pending_max);

    const auto& qct = memcached->qct_us();
    j.open("outputs")
        .num("sim.events", fab->sim().events_processed())
        .num("workload.mc_qps", memcached->qps(kRpcMeasureFrom, kRpcRun))
        .num("workload.mc_qct_avg_us", qct.mean())
        .num("workload.mc_qct_p99_us", qct.empty() ? 0.0 : qct.percentile(99))
        .num("workload.mc_done", memcached->completed())
        .num("workload.mongo_done", mongo->completed())
        .close();

    // Artifacts as harness::write_bench_artifacts writes them, through the
    // public snapshot and trace calls, into the run's work directory.
    const std::int64_t export_start = vfbench::now_ns();
    const std::string base = a.out_dir + "/testbed_rpc";
    const obs::MetricsSnapshot snap = fab->metrics_snapshot();
    std::ofstream(base + ".metrics.json", std::ios::trunc) << snap.to_json();
    std::ofstream(base + ".metrics.csv", std::ios::trunc) << snap.to_csv();
    fab->write_trace_json(base + ".trace.json");
    m.export_s_ns = vfbench::now_ns() - export_start;
    m.report_done = vfbench::now_ns();

    std::uint64_t artifact_bytes = 0;
    for (const char* ext : {".metrics.json", ".metrics.csv", ".trace.json"}) {
      std::error_code ec;
      const auto n = std::filesystem::file_size(base + ext, ec);
      if (ec || n == 0) {
        std::fprintf(stderr, "vfbench: artifact %s%s not written\n", base.c_str(), ext);
        std::exit(3);
      }
      artifact_bytes += n;
    }
    j.num("artifact_bytes", artifact_bytes);
    write_layers(j, *fab, a.trace ? &tracer : nullptr, pending_max);
    memcached.reset();
    mongo.reset();
    fab.reset();
  }
  m.end = vfbench::now_ns();
  write_timing(j, m, true);
  return j.done();
}

/// soak::SoakRunner with SoakOptions defaults except the horizon.  run()
/// builds and runs in one call; the set-up ends where it logs its "soak:"
/// start line, which a log sink installed here timestamps.
std::string soak_faults(const Args& a) {
  Marks m;
  Json j;
  m.start = vfbench::now_ns();
  {
    soak::SoakOptions opts;
    opts.seed = a.seed;
    opts.duration = kSoakDuration;
    auto runner = std::make_unique<soak::SoakRunner>(opts);
    std::int64_t setup_done = 0;
    double cpu0 = 0;
    set_log_threshold(LogLevel::kInfo);
    set_log_sink([&setup_done, &cpu0](LogLevel level, const std::string& line) {
      if (setup_done == 0 && line.find("soak: seed=") != std::string::npos) {
        setup_done = vfbench::now_ns();
        cpu0 = cpu_seconds();
        set_log_threshold(LogLevel::kWarn);
      } else if (level >= LogLevel::kWarn) {
        std::fprintf(stderr, "%s\n", line.c_str());
      }
    });
    const soak::SoakReport r = runner->run();
    m.run_done = vfbench::now_ns();
    m.run_cpu_s = cpu_seconds() - cpu0;
    set_log_sink({});
    if (setup_done == 0) {
      std::fprintf(stderr, "vfbench: soak start line never logged\n");
      std::exit(3);
    }
    m.setup_done = setup_done;

    const auto& f = r.faults;
    j.open("outputs")
        .num("sim.events", r.events)
        .num("soak.ok", static_cast<std::int64_t>(r.ok()))
        .num("soak.windows", static_cast<std::int64_t>(r.windows))
        .num("soak.clean_windows", static_cast<std::int64_t>(r.clean_windows))
        .num("soak.violation_s", r.violation_seconds)
        .num("soak.fct_p99_us_clean", r.fct_p99_us_clean)
        .num("soak.fct_samples", r.fct_samples)
        .num("soak.episodes", static_cast<std::int64_t>(r.episodes_total))
        .num("soak.invariant_violations", static_cast<std::uint64_t>(r.invariant_violations))
        .num("soak.peak_pending_events", static_cast<std::uint64_t>(r.peak_pending_events))
        .num("soak.peak_packets_in_flight", static_cast<std::uint64_t>(r.peak_packets_in_flight))
        .num("soak.sim_s", r.sim_seconds)
        .num("faults.link_downs", f.link_downs)
        .num("faults.loss_drops", f.loss_drops)
        .num("faults.switch_resets", f.switch_resets)
        .num("faults.stale_records", f.stale_records)
        .num("faults.corrupted_records", f.corrupted_records)
        .close();
    j.strs("slo_breaches", r.slo_breaches);
    std::vector<std::string> violations;
    for (const auto& v : r.violations) violations.push_back(v.invariant + ": " + v.detail);
    j.strs("violations", violations);
    // SoakRunner keeps its fabric private; the engine mode is what its
    // report records (serial: the fault plane forces it).
    j.open("engine").strs("sequential_reasons", r.forced_sequential).close();
    m.report_done = vfbench::now_ns();
    runner.reset();
  }
  m.end = vfbench::now_ns();
  write_timing(j, m, false);
  return j.done();
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vfbench_run <fattree_websearch|testbed_rpc|soak_faults> --seed N "
               "[--trace] [--k K] [--shards S] [--out DIR]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--k") {
      a.k = static_cast<int>(std::strtol(v, &end, 10));
      if (a.k < 2 || a.k % 2 != 0) usage();
    } else if (flag == "--shards") {
      a.shards = static_cast<int>(std::strtol(v, &end, 10));
      if (a.shards < 1) usage();
    } else if (flag == "--out") {
      a.out_dir = v;
      continue;
    } else {
      usage();
    }
    if (end == v || *end != '\0') usage();
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  std::string body;
  if (a.workload == "fattree_websearch") {
    body = fattree_websearch(a);
  } else if (a.workload == "testbed_rpc") {
    body = testbed_rpc(a);
  } else if (a.workload == "soak_faults") {
    body = soak_faults(a);
  } else {
    usage();
  }
  Json meta;
  meta.str("workload", a.workload)
      .num("seed", a.seed)
      .flag("traced", a.trace)
      .str("compiler", kCompiler)
      .str("build_type", VFBENCH_BUILD_TYPE)
      .raw("run", body);
  std::printf("%s\n", meta.done().c_str());
  return 0;
}
