#include "src/obs/obs.hpp"

#include <fstream>

#include "src/core/assert.hpp"
#include "src/core/log.hpp"

namespace ufab::obs {

namespace {

/// The Obs instance whose flight recorder dumps on a failed check.  At most
/// one per thread: the newest enabled instance with dump_on_check_failure
/// wins (experiments run one fabric at a time per thread; nested fabrics in
/// tests simply hand the hook back on destruction).  Thread-local alongside
/// the check-failure hook so concurrent bench variants dump their own
/// recorder, not a racing neighbor's.
thread_local Obs* g_crash_dump_obs = nullptr;

void crash_dump_hook(const char* expr, const char* file, int line, const char* msg) {
  (void)file;
  (void)line;
  (void)msg;
  if (g_crash_dump_obs == nullptr) return;
  Obs* obs = g_crash_dump_obs;
  TraceEvent ev;
  ev.kind = EventKind::kCheckFailure;
  // The simulator clock is unreachable from here; the ring is ordered, so a
  // trailing zero-stamp marker is still unambiguous.
  obs->recorder().record(ev);
  const std::string& path = obs->options().crash_dump_path;
  std::ofstream out(path, std::ios::trunc);
  if (out) {
    obs->recorder().write_json(out);
    std::fprintf(stderr, "ufab: flight recorder dumped to %s (check: %s)\n", path.c_str(),
                 expr);
  }
}

}  // namespace

Obs::Obs(ObsOptions opts)
    : opts_(std::move(opts)),
      recorder_(opts_.ring_capacity) {
  if (opts_.enabled && opts_.dump_on_check_failure) {
    g_crash_dump_obs = this;
    set_check_failure_hook(&crash_dump_hook);
  }
}

Obs::~Obs() {
  if (g_crash_dump_obs == this) {
    g_crash_dump_obs = nullptr;
    set_check_failure_hook(nullptr);
  }
}

void Obs::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    UFAB_LOG_WARN("cannot open %s for trace export", path.c_str());
    return;
  }
  recorder_.write_chrome_trace(out, namer_, profiler_, profiler_shards_);
}

}  // namespace ufab::obs
