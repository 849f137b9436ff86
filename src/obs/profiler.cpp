#include "src/obs/profiler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace ufab::obs {

namespace {

[[nodiscard]] std::int64_t wall_ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calibrates ticks -> ns once per process.  ~300 us of busy spinning, paid
/// on the first export (or first Profiler construction), never per run.
[[nodiscard]] double calibrate_ns_per_tick() {
#if UFAB_PROF_HAS_RDTSC
  const std::int64_t w0 = wall_ns_now();
  const std::int64_t t0 = ProfClock::now();
  std::int64_t w1 = w0;
  // Spin until enough wall time has passed for a stable ratio.
  while (w1 - w0 < 300'000) w1 = wall_ns_now();
  const std::int64_t t1 = ProfClock::now();
  if (t1 <= t0) return 1.0;  // non-monotonic TSC; degrade to raw ticks
  return static_cast<double>(w1 - w0) / static_cast<double>(t1 - t0);
#else
  return 1.0;  // clock already reads nanoseconds
#endif
}

[[nodiscard]] double ticks_to_ns(std::int64_t ticks) {
  return static_cast<double>(ticks) * ProfClock::ns_per_tick();
}

void append_f(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void append_f(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

[[nodiscard]] int occ_bucket(std::uint64_t occupancy) {
  return std::min(static_cast<int>(std::bit_width(occupancy)), Profiler::kOccBuckets - 1);
}

}  // namespace

const char* to_string(ProfCat cat) {
  switch (cat) {
    case ProfCat::kDispatchDeliver: return "dispatch_deliver";
    case ProfCat::kDispatchClosure: return "dispatch_closure";
    case ProfCat::kQueuePop: return "queue_pop";
    case ProfCat::kMailboxInject: return "mailbox_inject";
    case ProfCat::kBarrierWait: return "barrier_wait";
    case ProfCat::kWfq: return "wfq";
    case ProfCat::kTelemetry: return "telemetry";
    case ProfCat::kMailboxPost: return "mailbox_post";
    case ProfCat::kCount: break;
  }
  return "unknown";
}

double ProfClock::ns_per_tick() {
  static const double ratio = calibrate_ns_per_tick();
  return ratio;
}

std::int64_t ProfClock::self_ticks() {
  static const std::int64_t self = [] {
    std::array<std::int64_t, 129> reads{};
    for (std::int64_t& r : reads) r = ProfClock::now();
    std::array<std::int64_t, 128> deltas{};
    for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] = reads[i + 1] - reads[i];
    std::sort(deltas.begin(), deltas.end());
    return std::max<std::int64_t>(deltas[deltas.size() / 2], 0);
  }();
  return self;
}

Profiler::Profiler(const ProfOptions& opts) : opts_(opts) {
  if (opts_.level < 1) opts_.level = 1;
  if (opts_.sample_period_ns < 1) opts_.sample_period_ns = 1;
  if (opts_.max_samples_per_shard < 1) opts_.max_samples_per_shard = 1;
  if (opts_.timing_stride < 1) opts_.timing_stride = 1;
  opts_.timing_stride = std::bit_ceil(opts_.timing_stride);
  timing_mask_ = opts_.timing_stride - 1;
  // Pay the clock calibration now, outside any timed region, so the first
  // export does not stall and benchmark iterations never see it.
  (void)ProfClock::ns_per_tick();
}

int Profiler::env_level() {
  const char* v = std::getenv("UFAB_PROF");
  if (v == nullptr || v[0] == '\0') return 0;
  const int level = std::atoi(v);
  if (level <= 0) return 0;
  return level >= 2 ? 2 : 1;
}

void Profiler::add_sample(int shard, const ProfSample& sample) {
  const auto si = static_cast<std::size_t>(shard);
  std::vector<ProfSample>& ring = sample_rings_[si];
  if (ring.empty()) ring.resize(opts_.max_samples_per_shard);
  ring[samples_taken_[si] % ring.size()] = sample;
  ++samples_taken_[si];
  ++ring_occ_hist_[si][static_cast<std::size_t>(occ_bucket(sample.ring_events))];
  ++overflow_occ_hist_[si][static_cast<std::size_t>(occ_bucket(sample.overflow_events))];
  next_sample_ns_[si] = sample.sim_ns + opts_.sample_period_ns;
}

void Profiler::note_epoch(std::int64_t epoch_sim_ns) {
  if (epochs_ == 0 || epoch_sim_ns < epoch_sim_ns_min_) epoch_sim_ns_min_ = epoch_sim_ns;
  if (epochs_ == 0 || epoch_sim_ns > epoch_sim_ns_max_) epoch_sim_ns_max_ = epoch_sim_ns;
  epoch_sim_ns_total_ += epoch_sim_ns;
  ++epochs_;
  const auto len = static_cast<std::uint64_t>(epoch_sim_ns < 0 ? 0 : epoch_sim_ns);
  const int b = std::min(static_cast<int>(std::bit_width(len)), kEpochLenBuckets - 1);
  ++epoch_len_hist_[static_cast<std::size_t>(b)];
}

void Profiler::note_injected(std::uint64_t crossings) { crossings_injected_ += crossings; }

double Profiler::run_wall_ns() const { return ticks_to_ns(run_wall_ticks_); }

std::vector<ProfSample> Profiler::samples(int shard) const {
  const auto si = static_cast<std::size_t>(shard);
  const std::vector<ProfSample>& ring = sample_rings_[si];
  std::vector<ProfSample> out;
  if (ring.empty()) return out;
  const std::uint64_t taken = samples_taken_[si];
  const std::uint64_t n = std::min<std::uint64_t>(taken, ring.size());
  out.reserve(n);
  const std::uint64_t start = taken - n;  // oldest still in the ring
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(ring[(start + i) % ring.size()]);
  return out;
}

double Profiler::scope_ns(int shard, ProfCat cat) const {
  const ProfSlice& sl = slice(shard);
  const auto ci = static_cast<std::size_t>(cat);
  if (sl.sampled[ci] == 0) return 0.0;
  // Each measured interval includes one clock read's own latency — material
  // on VMs where a TSC read costs tens of ns, the same order as an event.
  double ticks = static_cast<double>(sl.ticks[ci]) -
                 static_cast<double>(sl.sampled[ci]) *
                     static_cast<double>(ProfClock::self_ticks());
  if (ticks < 0) ticks = 0;
  const double ns = ticks * ProfClock::ns_per_tick();
  if (sl.sampled[ci] >= sl.count[ci]) return ns;
  // Strided category: the sampled ticks stand for count/sampled times as
  // many calls (self-normalizing ratio estimator, exact when stride is 1).
  return ns * (static_cast<double>(sl.count[ci]) / static_cast<double>(sl.sampled[ci]));
}

ProfDerived Profiler::derived(int shard_count) const {
  ProfDerived d;
  d.busy_ns_per_shard.resize(static_cast<std::size_t>(shard_count), 0.0);
  d.stall_ns_per_shard.resize(static_cast<std::size_t>(shard_count), 0.0);
  for (int s = 0; s < shard_count; ++s) {
    double busy = 0.0;
    for (const ProfCat cat : {ProfCat::kDispatchDeliver, ProfCat::kDispatchClosure,
                              ProfCat::kQueuePop, ProfCat::kMailboxInject}) {
      busy += scope_ns(s, cat);
    }
    const double stall = scope_ns(s, ProfCat::kBarrierWait);
    d.busy_ns_per_shard[static_cast<std::size_t>(s)] = busy;
    d.stall_ns_per_shard[static_cast<std::size_t>(s)] = stall;
    d.busy_ns_total += busy;
    d.stall_ns_total += stall;
  }
  if (d.busy_ns_total + d.stall_ns_total > 0) {
    d.stall_fraction = d.stall_ns_total / (d.busy_ns_total + d.stall_ns_total);
  }
  if (d.busy_ns_total > 0 && shard_count > 0) {
    const double mean = d.busy_ns_total / shard_count;
    const double max =
        *std::max_element(d.busy_ns_per_shard.begin(), d.busy_ns_per_shard.end());
    if (mean > 0) d.shard_imbalance = max / mean;
  }
  return d;
}

std::string Profiler::to_json(const ProfContext& ctx) const {
  const ProfDerived d = derived(ctx.shard_count);
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"ufab-profile-v1\",\n";
  append_f(out, "  \"level\": %d,\n", opts_.level);
  append_f(out, "  \"shards\": %d,\n", ctx.shard_count);
  append_f(out, "  \"threaded\": %s,\n", ctx.threaded ? "true" : "false");
  append_f(out, "  \"lookahead_ns\": %lld,\n", static_cast<long long>(ctx.lookahead_ns));
  append_f(out, "  \"epoch_windows\": %d,\n", ctx.epoch_windows);
  append_f(out, "  \"sample_period_ns\": %lld,\n",
           static_cast<long long>(opts_.sample_period_ns));
  append_f(out, "  \"timing_stride\": %llu,\n",
           static_cast<unsigned long long>(opts_.timing_stride));
  append_f(out, "  \"wall_ns\": %.1f,\n", run_wall_ns());
  append_f(out,
           "  \"epochs\": {\"count\": %llu, \"sim_ns_total\": %lld, \"sim_ns_min\": %lld, "
           "\"sim_ns_max\": %lld, \"crossings_injected\": %llu, \"windows\": %llu},\n",
           static_cast<unsigned long long>(epochs_),
           static_cast<long long>(epoch_sim_ns_total_),
           static_cast<long long>(epochs_ == 0 ? 0 : epoch_sim_ns_min_),
           static_cast<long long>(epochs_ == 0 ? 0 : epoch_sim_ns_max_),
           static_cast<unsigned long long>(crossings_injected_),
           static_cast<unsigned long long>(windows_));
  out += "  \"epoch_len_ns_log2\": [";
  for (int b = 0; b < kEpochLenBuckets; ++b) {
    append_f(out, "%s%llu", b == 0 ? "" : ",",
             static_cast<unsigned long long>(epoch_len_hist_[static_cast<std::size_t>(b)]));
  }
  out += "],\n";
  append_f(out,
           "  \"handoff\": {\"max_drain_batch\": %llu, \"mailbox_flushes\": %llu},\n",
           static_cast<unsigned long long>(ctx.handoff_max_batch),
           static_cast<unsigned long long>(ctx.mailbox_flushes));
  append_f(out,
           "  \"derived\": {\"stall_fraction\": %.6f, \"shard_imbalance\": %.6f, "
           "\"busy_ns_total\": %.1f, \"stall_ns_total\": %.1f},\n",
           d.stall_fraction, d.shard_imbalance, d.busy_ns_total, d.stall_ns_total);
  out += "  \"scopes\": [";
  for (int c = 0; c < kProfCatCount; ++c) {
    append_f(out, "%s\"%s\"", c == 0 ? "" : ", ", to_string(static_cast<ProfCat>(c)));
  }
  out += "],\n  \"shards_detail\": [\n";
  for (int s = 0; s < ctx.shard_count; ++s) {
    const ProfSlice& sl = slice(s);
    const std::uint64_t events =
        static_cast<std::size_t>(s) < ctx.events_per_shard.size()
            ? ctx.events_per_shard[static_cast<std::size_t>(s)]
            : 0;
    const std::uint64_t crossings =
        static_cast<std::size_t>(s) < ctx.crossings_per_shard.size()
            ? ctx.crossings_per_shard[static_cast<std::size_t>(s)]
            : 0;
    append_f(out, "    {\"shard\": %d, \"events\": %llu, \"crossings_out\": %llu,\n", s,
             static_cast<unsigned long long>(events),
             static_cast<unsigned long long>(crossings));
    append_f(out, "     \"busy_ns\": %.1f, \"stall_ns\": %.1f,\n",
             d.busy_ns_per_shard[static_cast<std::size_t>(s)],
             d.stall_ns_per_shard[static_cast<std::size_t>(s)]);
    out += "     \"scope_ns\": {";
    for (int c = 0; c < kProfCatCount; ++c) {
      append_f(out, "%s\"%s\": %.1f", c == 0 ? "" : ", ",
               to_string(static_cast<ProfCat>(c)), scope_ns(s, static_cast<ProfCat>(c)));
    }
    out += "},\n     \"scope_count\": {";
    for (int c = 0; c < kProfCatCount; ++c) {
      append_f(out, "%s\"%s\": %llu", c == 0 ? "" : ", ",
               to_string(static_cast<ProfCat>(c)),
               static_cast<unsigned long long>(sl.count[static_cast<std::size_t>(c)]));
    }
    out += "},\n     \"scope_sampled\": {";
    for (int c = 0; c < kProfCatCount; ++c) {
      append_f(out, "%s\"%s\": %llu", c == 0 ? "" : ", ",
               to_string(static_cast<ProfCat>(c)),
               static_cast<unsigned long long>(sl.sampled[static_cast<std::size_t>(c)]));
    }
    append_f(out, "},\n     \"queue\": {\"samples\": %llu, \"ring_occ_log2\": [",
             static_cast<unsigned long long>(samples_taken_[static_cast<std::size_t>(s)]));
    const auto& rh = ring_occ_hist_[static_cast<std::size_t>(s)];
    const auto& oh = overflow_occ_hist_[static_cast<std::size_t>(s)];
    for (int b = 0; b < kOccBuckets; ++b) {
      append_f(out, "%s%llu", b == 0 ? "" : ",",
               static_cast<unsigned long long>(rh[static_cast<std::size_t>(b)]));
    }
    out += "], \"overflow_occ_log2\": [";
    for (int b = 0; b < kOccBuckets; ++b) {
      append_f(out, "%s%llu", b == 0 ? "" : ",",
               static_cast<unsigned long long>(oh[static_cast<std::size_t>(b)]));
    }
    append_f(out, "]}}%s\n", s + 1 < ctx.shard_count ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

void Profiler::write_chrome_counter_events(std::ostream& os, bool& first,
                                           int shard_count) const {
  const auto emit = [&os, &first](const std::string& json) {
    if (!first) os << ",\n";
    first = false;
    os << json;
  };
  bool any = false;
  for (int s = 0; s < shard_count; ++s) {
    if (samples_taken_[static_cast<std::size_t>(s)] != 0) any = true;
  }
  if (!any) return;
  std::string buf;
  append_f(buf,
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, "
           "\"args\": {\"name\": \"engine profiler\"}}",
           kTracePid);
  emit(buf);
  for (int s = 0; s < shard_count; ++s) {
    if (samples_taken_[static_cast<std::size_t>(s)] == 0) continue;
    buf.clear();
    append_f(buf,
             "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
             "\"args\": {\"name\": \"shard %d\"}}",
             kTracePid, s, s);
    emit(buf);
    const std::vector<ProfSample> series = samples(s);
    bool any_crossings = false;
    for (const ProfSample& sm : series) {
      if (sm.crossings_out != 0) any_crossings = true;
    }
    for (const ProfSample& sm : series) {
      buf.clear();
      append_f(buf,
               "{\"name\": \"prof.queue_depth[s%d]\", \"ph\": \"C\", \"pid\": %d, "
               "\"tid\": %d, \"ts\": %.3f, \"args\": {\"ring\": %llu, \"overflow\": %llu}}",
               s, kTracePid, s, static_cast<double>(sm.sim_ns) / 1e3,
               static_cast<unsigned long long>(sm.ring_events),
               static_cast<unsigned long long>(sm.overflow_events));
      emit(buf);
      if (any_crossings) {
        buf.clear();
        append_f(buf,
                 "{\"name\": \"prof.crossings[s%d]\", \"ph\": \"C\", \"pid\": %d, "
                 "\"tid\": %d, \"ts\": %.3f, \"args\": {\"posted\": %llu}}",
                 s, kTracePid, s, static_cast<double>(sm.sim_ns) / 1e3,
                 static_cast<unsigned long long>(sm.crossings_out));
        emit(buf);
      }
    }
  }
}

}  // namespace ufab::obs
