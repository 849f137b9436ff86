#include "src/harness/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "src/transport/transport.hpp"

namespace ufab::harness {

namespace {
using namespace ufab::time_literals;

double rate_over(RateMeter* m, TimeNs from, TimeNs to) {
  if (m == nullptr || to <= from) return 0.0;
  double bytes = 0.0;
  for (const auto& s : m->series(to)) {
    if (s.at >= from && s.at < to) bytes += s.rate.bytes_per_sec() * m->bucket_width().sec();
  }
  return bytes * 8.0 / 1e9 / (to - from).sec();
}
}  // namespace

Experiment::Experiment(Scheme scheme, const TopoFn& topo_fn, topo::FabricOptions base_opts,
                       SchemeOptions scheme_opts, std::uint64_t seed)
    : scheme_(scheme), scheme_opts_(scheme_opts) {
  const topo::FabricOptions opts = fabric_options_for(scheme, base_opts, scheme_opts);
  fab_ = std::make_unique<Fabric>(
      [&](sim::Simulator& s) { return topo_fn(s, opts); }, seed);
  // UFAB_SHARDS splits the engine into shards before any scheme or workload
  // events exist (the schedule is the same for every shard count);
  // UFAB_SHARD_EXEC=seq|threads pins the execution strategy (equivalence
  // testing), default auto.
  if (const char* v = std::getenv("UFAB_SHARDS"); v != nullptr && v[0] != '\0') {
    sim::ShardExec exec = sim::ShardExec::kAuto;
    if (const char* e = std::getenv("UFAB_SHARD_EXEC"); e != nullptr) {
      if (e[0] == 's') {
        exec = sim::ShardExec::kSequential;
      } else if (e[0] == 't') {
        exec = sim::ShardExec::kThreads;
      }
    }
    fab_->configure_sharding(std::max(1, std::atoi(v)), exec);
  }
  // UFAB_EPOCH_WINDOWS=<n> sets how many lookahead windows each epoch
  // amortizes over one coordinator barrier (default 16).  Schedule-neutral:
  // results are byte-identical for every width (DESIGN.md §12).
  if (const char* v = std::getenv("UFAB_EPOCH_WINDOWS"); v != nullptr && v[0] != '\0') {
    fab_->sim().set_epoch_windows(std::max(1, std::atoi(v)));
  }
  // UFAB_PROF attaches the engine self-profiling plane (level 1 = loop
  // attribution, 2 = + per-call scopes).  Passive: the schedule and every
  // simulation result are unchanged (tests/obs/profiler_test.cpp).
  if (const int prof_level = obs::Profiler::env_level(); prof_level > 0) {
    obs::ProfOptions popts;
    popts.level = prof_level;
    fab_->sim().enable_profiling(popts);
  }
  install_scheme(*fab_, scheme, scheme_opts_);
  fab_->install_pair_metering(1_ms);
  fab_->install_tenant_metering(1_ms);
}

double Experiment::pair_rate_gbps(VmPairId pair, TimeNs from, TimeNs to) {
  return rate_over(fab_->pair_meter(pair), from, to);
}

double Experiment::tenant_rate_gbps(TenantId tenant, TimeNs from, TimeNs to) {
  return rate_over(fab_->tenant_meter(tenant), from, to);
}

PercentileTracker Experiment::aggregate_rtt_us() const {
  PercentileTracker out;
  for (std::size_t h = 0; h < fab_->net().host_count(); ++h) {
    const auto& stack = const_cast<Fabric&>(*fab_).stack_at(HostId{static_cast<std::int32_t>(h)});
    for (const double v : stack.rtt_samples_us().sorted()) out.add(v);
  }
  return out;
}

std::int64_t Experiment::max_queue_bytes() const {
  std::int64_t worst = 0;
  for (const auto* l : fab_->net().links()) worst = std::max(worst, l->max_queue_bytes());
  return worst;
}

std::int64_t Experiment::total_drops() const {
  std::int64_t total = 0;
  for (const auto* l : fab_->net().links()) total += l->drops();
  return total;
}

double dissatisfaction_ratio(Fabric& fab, const std::vector<GuaranteeSpec>& specs,
                             TimeNs until) {
  double shortfall_bytes = 0.0;
  double delivered_bytes = 0.0;
  for (const GuaranteeSpec& g : specs) {
    RateMeter* m = fab.pair_meter(g.pair);
    const double bucket_sec = m != nullptr ? m->bucket_width().sec() : 1e-3;
    if (m == nullptr) {
      shortfall_bytes += g.min_bps / 8.0 * (std::min(until, g.to) - g.from).sec();
      continue;
    }
    for (const auto& s : m->series(until)) {
      if (s.at < g.from || s.at >= g.to) continue;
      const double got = s.rate.bytes_per_sec() * bucket_sec;
      const double want = g.min_bps / 8.0 * bucket_sec;
      delivered_bytes += got;
      shortfall_bytes += std::max(0.0, want - got);
    }
  }
  return delivered_bytes + shortfall_bytes <= 0.0 ? 0.0
                                                  : shortfall_bytes / std::max(delivered_bytes, 1.0);
}

TimeSeries dissatisfaction_series(Fabric& fab, const std::vector<GuaranteeSpec>& specs,
                                  TimeNs until) {
  TimeSeries out;
  if (specs.empty()) return out;
  RateMeter* first = fab.pair_meter(specs.front().pair);
  const TimeNs bucket = first != nullptr ? first->bucket_width() : 1_ms;
  for (TimeNs t = TimeNs::zero(); t < until; t += bucket) {
    double shortfall = 0.0;
    double want_total = 0.0;
    for (const GuaranteeSpec& g : specs) {
      if (t < g.from || t >= g.to) continue;
      RateMeter* m = fab.pair_meter(g.pair);
      double got = 0.0;
      if (m != nullptr) {
        for (const auto& s : m->series(t + bucket)) {
          if (s.at == t) got = s.rate.bits_per_sec();
        }
      }
      want_total += g.min_bps;
      shortfall += std::max(0.0, g.min_bps - got);
    }
    if (want_total > 0.0) out.add(t, 100.0 * shortfall / want_total);
  }
  return out;
}

TimeNs rate_settle_time(Fabric& fab, VmPairId pair, TimeNs from, TimeNs until, double lo_gbps,
                        double hi_gbps, TimeNs hold) {
  RateMeter* m = fab.pair_meter(pair);
  if (m == nullptr) return TimeNs::max();
  TimeSeries ts;
  for (const auto& s : m->series(until)) ts.add(s.at, s.rate.gbit_per_sec());
  return ts.settle_time(from, lo_gbps, hi_gbps, hold);
}

namespace {
bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

// Scheme/variant labels ("PicNIC'+WCC+Clove") become filename-safe slugs.
std::string slug(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out.push_back(ok ? c : '-');
  }
  return out;
}
}  // namespace

void write_bench_artifacts(Fabric& fab, const std::string& bench, const std::string& variant) {
  obs::Obs* obs = fab.observability();
  const bool obs_on = obs != nullptr && obs->enabled();
  const bool prof_on = fab.sim().profiler() != nullptr;
  if (!obs_on && !prof_on) return;

  // Artifacts default to bench_artifacts/ (gitignored) instead of littering
  // the working directory; UFAB_METRICS_DIR overrides.
  const char* dir_env = std::getenv("UFAB_METRICS_DIR");
  const std::string dir =
      dir_env != nullptr && dir_env[0] != '\0' ? dir_env : "bench_artifacts";
  std::error_code mkdir_ec;
  std::filesystem::create_directories(dir, mkdir_ec);
  if (mkdir_ec) {
    std::fprintf(stderr, "[obs] cannot create %s: %s\n", dir.c_str(),
                 mkdir_ec.message().c_str());
    return;
  }
  std::string base = dir + "/" + slug(bench);
  if (!variant.empty()) base += "." + slug(variant);

  // The profile artifact is independent of the obs plane: a UFAB_PROF=1
  // UFAB_OBS=0 run (the perf lane's shape, where obs event recording would
  // distort the numbers) still gets its shard x scope matrix.
  if (prof_on) {
    const std::string profile_path = base + ".profile.json";
    if (!write_text_file(profile_path, fab.sim().profile_json())) {
      std::fprintf(stderr, "[prof] failed to write %s\n", profile_path.c_str());
    } else {
      std::fprintf(stderr, "[prof] profile: %s\n", profile_path.c_str());
    }
  }
  if (!obs_on) return;

  const obs::MetricsSnapshot snap = fab.metrics_snapshot();
  const std::string json_path = base + ".metrics.json";
  const std::string csv_path = base + ".metrics.csv";
  if (!write_text_file(json_path, snap.to_json())) {
    std::fprintf(stderr, "[obs] failed to write %s\n", json_path.c_str());
  } else if (!write_text_file(csv_path, snap.to_csv())) {
    std::fprintf(stderr, "[obs] failed to write %s\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "[obs] metrics: %s (%zu metrics)\n", json_path.c_str(),
                 snap.rows.size());
  }

  if (obs->recorder().size() > 0) {
    const std::string trace_path = base + ".trace.json";
    obs->set_profiler(fab.sim().profiler(), fab.sim().shard_count());
    obs->write_chrome_trace_file(trace_path);
    std::fprintf(stderr, "[obs] trace: %s (%zu events, %llu recorded)\n", trace_path.c_str(),
                 obs->recorder().size(),
                 static_cast<unsigned long long>(obs->recorder().recorded_total()));
  }
}

obs::ObsOptions obs_options_from_env() {
  obs::ObsOptions opts;
  if (const char* v = std::getenv("UFAB_OBS"); v != nullptr && v[0] == '0') opts.enabled = false;
  if (const char* v = std::getenv("UFAB_OBS_DATAPATH"); v != nullptr && v[0] == '0') {
    opts.record_datapath = false;
  }
  return opts;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_rate_series(Fabric& fab, const std::vector<std::pair<std::string, VmPairId>>& pairs,
                       TimeNs from, TimeNs to, TimeNs step) {
  std::printf("%10s", "time_ms");
  for (const auto& [name, pair] : pairs) std::printf("  %12s", name.c_str());
  std::printf("\n");
  for (TimeNs t = from; t < to; t += step) {
    std::printf("%10.1f", t.ms());
    for (const auto& [name, pair] : pairs) {
      RateMeter* m = fab.pair_meter(pair);
      double gbps = 0.0;
      if (m != nullptr) {
        for (const auto& s : m->series(t + step)) {
          if (s.at >= t && s.at < t + step) gbps = s.rate.gbit_per_sec();
        }
      }
      std::printf("  %12.2f", gbps);
    }
    std::printf("\n");
  }
}

void print_cdf_rows(const std::string& label, const PercentileTracker& tracker,
                    const std::string& unit) {
  if (tracker.empty()) {
    std::printf("%-24s  (no samples)\n", label.c_str());
    return;
  }
  std::printf("%-24s  p50=%10.1f%s  p90=%10.1f%s  p99=%10.1f%s  p99.9=%10.1f%s  max=%10.1f%s\n",
              label.c_str(), tracker.percentile(50), unit.c_str(), tracker.percentile(90),
              unit.c_str(), tracker.percentile(99), unit.c_str(), tracker.percentile(99.9),
              unit.c_str(), tracker.max(), unit.c_str());
}

}  // namespace ufab::harness
