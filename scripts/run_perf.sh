#!/usr/bin/env bash
# Engine performance lane: builds Release, runs the data-structure
# microbenchmarks plus interleaved A/B wall-clock comparisons of the fig17
# workload, and writes the numbers to BENCH_engine.json at the repo root.
#
# A/B comparisons, each run interleaved (A B A B ..., take the min per side)
# so slow-machine noise and thermal drift hit every side equally:
#   * engine sharding — one fig17 grid cell, UFAB_SHARDS=1 vs =4.  Runs in
#     BOTH smoke (k=4, 1 round) and full (k=8, 3 rounds) so the samples are
#     never null, even on single-CPU hosts;
#   * sweep parallelism — the full k=4 grid, UFAB_JOBS=1 vs all cores
#     (full lane only);
#   * profiler overhead — BM_ProfOverheadPair: the BM_Fig17Slice run phase
#     with the profiler off and on, back to back in one process, the first
#     side alternating pair by pair; 8 rounds, one process each; guarded:
#     the lane FAILS if the median of the rounds' paired overheads exceeds
#     UFAB_PROF_GUARD_PCT percent (default 5).  Only the run phase
#     (run_until) is timed, where all of the profiler's cost lands.
#
# The full lane additionally records a shard-scaling grid (UFAB_SHARDS=2/4/8
# single-round wall clocks on the k=8 cell) and a first fig17 k=16 row
# (1024 hosts, sharded, profiled).  On hosts with >= 4 CPUs the threaded
# 4-shard run must beat serial by UFAB_SHARD_SPEEDUP_FLOOR (default 2.0) or
# the lane fails; on smaller hosts the numbers are recorded but not gated
# (a 1-CPU host cannot express engine parallelism).
#
# The lane also runs the fig17 cell untimed with UFAB_PROF=1 (serial and
# sharded) and checks that both print stdout byte-identical to a plain
# unprofiled run with no UFAB_SHARDS (one engine, one schedule; the profiler
# is passive).  Two machine-independent guards read the emitted
# *.profile.json files, in smoke too:
#   * the link pipe — the serial cell retires at most 1.5 calendar
#     events per delivered packet hop (events / scope_count.dispatch_deliver;
#     a wire-exit event on every hop would sit near 2);
#   * multi-window epochs — the sharded cell spans at least 5 lookahead
#     windows per coordinator barrier (windows / epochs).
# The stall/imbalance/epoch numbers are merged into BENCH_engine.json via
# scripts/profile_report.py.
#
#   scripts/run_perf.sh            # full lane: microbenches + timed fig17
#   scripts/run_perf.sh --smoke    # short: microbenches + k=4 cells
#
# Environment:
#   UFAB_JOBS    worker threads for the sweep-parallel side (default: nproc).
#   UFAB_SHARDS_AB      shard count for the sharded side (default: 4).
#   UFAB_PROF_GUARD_PCT max tolerated profiler overhead percent (default: 5).
#   UFAB_SHARD_SPEEDUP_FLOOR  min 4-shard speedup on >=4-CPU hosts (2.0).
#   UFAB_PERF_SKIP_K16=1      skip the k=16 row (it is the longest run).
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then SMOKE=1; fi

BUILD_DIR="build-perf"
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DUFAB_SANITIZE= >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target micro_datastructures fig17_large_scale

OUT="BENCH_engine.json"
MICRO_JSON="$(mktemp)"
GUARD_JSON="$(mktemp)"
STDOUT_OFF="$(mktemp)"
STDOUT_ON="$(mktemp)"
trap 'rm -f "${MICRO_JSON}" "${GUARD_JSON}" "${STDOUT_OFF}" "${STDOUT_ON}"' EXIT

cpus_online="$(nproc)"

MIN_TIME=0.5
if [[ "${SMOKE}" == "1" ]]; then MIN_TIME=0.05; fi
"${BUILD_DIR}/bench/micro_datastructures" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_out="${MICRO_JSON}" --benchmark_out_format=json \
  --benchmark_filter='BM_(EventQueue|EventQueueBurst|EventQueueFarHorizon|EventQueueSparse|ShardMailbox|MailboxBatch|EpochBarrier|PacketMake|CoreAgentProbe|Fig17Slice|ProfScope|WfqNext|WfqNextSparse|Bloom|LinkPipelineHop|FlatFib|IntQuantize|TokenAssignment|TraceExport)'

# Runs BM_ProfOverheadPair once (one round: 16 adjacent off/on pairs in one
# process) and prints the round's mean run phase per side in milliseconds,
# "off on".  UFAB_PROF stays unset: the benchmark attaches the profiler to
# the "on" side itself.
prof_pair_ms() {
  env -u UFAB_PROF "${BUILD_DIR}/bench/micro_datastructures" \
    --benchmark_out="${GUARD_JSON}" --benchmark_out_format=json \
    --benchmark_filter='^BM_ProfOverheadPair/' >/dev/null
  python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for b in doc["benchmarks"]:
    if b["name"].startswith("BM_ProfOverheadPair"):
        print("%.4f %.4f" % (b["off_ms"], b["on_ms"]))
        break
' "${GUARD_JSON}"
}

# Profiler overhead guard: 8 rounds of BM_ProfOverheadPair.  A round's
# overhead is (on - off) / off over its own adjacent pairs, so host speed
# drift slower than a pair and per-process layout effects cancel, and the
# alternating first side keeps a first-runs-faster bias off both; the gate
# is the median of the rounds' overheads.  Runs in smoke too — it is the
# cheapest place to catch an accidentally hot profiling path.
guard_pct="${UFAB_PROF_GUARD_PCT:-5}"
guard_rounds=8
off_samples=""
on_samples=""
for ((i = 1; i <= guard_rounds; ++i)); do
  echo "[perf] prof guard, round ${i}/${guard_rounds} ..." >&2
  read -r off on <<<"$(prof_pair_ms)"
  off_samples+="${off_samples:+,}${off}"
  on_samples+="${on_samples:+,}${on}"
done
prof_overhead=$(python3 -c '
import statistics, sys
off = [float(x) for x in sys.argv[1].split(",")]
on = [float(x) for x in sys.argv[2].split(",")]
pcts = [100.0 * (b - a) / a if a > 0 else 0.0 for a, b in zip(off, on)]
for i, (a, b, pct) in enumerate(zip(off, on, pcts), 1):
    print("[perf] prof guard, round %d: off=%.4fms on=%.4fms overhead=%.2f%%" % (i, a, b, pct),
          file=sys.stderr)
print("%.2f %.4f %.4f" % (statistics.median(pcts), statistics.median(off), statistics.median(on)))
' "${off_samples}" "${on_samples}")
read -r overhead_pct off_ms on_ms <<<"${prof_overhead}"
echo "[perf] prof guard: median paired overhead ${overhead_pct}% over ${guard_rounds} rounds (limit ${guard_pct}%; median off=${off_ms}ms on=${on_ms}ms)" >&2
if python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) > float(sys.argv[2]) else 1)' \
    "${overhead_pct}" "${guard_pct}"; then
  echo "[perf] FAIL: profiler overhead ${overhead_pct}% exceeds ${guard_pct}%" >&2
  exit 1
fi

# Profiled fig17 cell runs (untimed): serial and sharded, each into its own
# artifact dir so the profile files cannot collide.  Both must print stdout
# byte-identical to a plain unprofiled run without UFAB_SHARDS: the profiler
# is passive, and every shard count fires the same schedule.
jobs="${UFAB_JOBS:-$(nproc)}"
shards_ab="${UFAB_SHARDS_AB:-4}"
prof_k=8
if [[ "${SMOKE}" == "1" ]]; then prof_k=4; fi
cell=(UFAB_FIG17_K="${prof_k}" UFAB_FIG17_ONLY=uFAB,1,0.5 UFAB_JOBS=1 UFAB_OBS=0)
rm -rf bench_artifacts/prof-serial bench_artifacts/prof-sharded bench_artifacts/prof-k16
echo "[perf] fig17 cell k=${prof_k}: reference (plain engine, UFAB_PROF=0) ..." >&2
env "${cell[@]}" UFAB_PROF=0 "${BUILD_DIR}/bench/fig17_large_scale" >"${STDOUT_OFF}"
for side in serial sharded; do
  shards=1
  if [[ "${side}" == "sharded" ]]; then shards="${shards_ab}"; fi
  echo "[perf] fig17 cell k=${prof_k}: profiled ${side} (UFAB_SHARDS=${shards}, UFAB_PROF=1) ..." >&2
  env "${cell[@]}" UFAB_SHARDS="${shards}" UFAB_PROF=1 \
    UFAB_METRICS_DIR="bench_artifacts/prof-${side}" \
    "${BUILD_DIR}/bench/fig17_large_scale" >"${STDOUT_ON}"
  if ! cmp -s "${STDOUT_OFF}" "${STDOUT_ON}"; then
    echo "[perf] FAIL: profiled ${side} stdout differs from the plain run:" >&2
    diff "${STDOUT_OFF}" "${STDOUT_ON}" >&2 || true
    exit 1
  fi
done
echo "[perf] equivalence OK: profiled serial and sharded stdout byte-identical to plain" >&2

profile_of() {
  local files=("$1"/*.profile.json)
  if [[ ! -e "${files[0]}" ]]; then
    echo "[perf] FAIL: no profile.json written under $1" >&2
    exit 1
  fi
  scripts/profile_report.py --json "${files[0]}"
}
serial_profile="$(profile_of bench_artifacts/prof-serial)"
sharded_profile="$(profile_of bench_artifacts/prof-sharded)"
echo "[perf] stall/imbalance report:" >&2
scripts/profile_report.py bench_artifacts/prof-serial/*.profile.json \
  bench_artifacts/prof-sharded/*.profile.json >&2

# Machine-independent guards (smoke too): the link pipe keeps the serial
# cell near one calendar event per hop, and multi-window epochs amortize
# each coordinator barrier over >= 5 lookahead windows.
if ! python3 -c '
import json, sys
serial = json.loads(sys.argv[1])
sharded = json.loads(sys.argv[2])
per_hop = serial["events"] / serial["deliveries"] if serial["deliveries"] else float("inf")
per_epoch = sharded["windows"] / sharded["epochs"] if sharded["epochs"] else 0.0
print("[perf] serial cell: %d events / %d hops = %.2f events per hop (max 1.5)"
      % (serial["events"], serial["deliveries"], per_hop), file=sys.stderr)
print("[perf] sharded cell: %d windows / %d epochs = %.1f windows per barrier (min 5)"
      % (sharded["windows"], sharded["epochs"], per_epoch), file=sys.stderr)
sys.exit(0 if per_hop <= 1.5 and per_epoch >= 5 else 1)
' "${serial_profile}" "${sharded_profile}"; then
  echo "[perf] FAIL: events per hop above 1.5 or fewer than 5 windows per barrier" >&2
  exit 1
fi

# Timed A/B wall clocks.  The sharding comparison runs in smoke too (single
# round) so a_min_s/b_min_s are never null in BENCH_engine.json, whatever the
# host; the sweep A/B and scaling grid are full-lane only.
serial_samples=""
sharded_samples=""
jobs1_samples=""
jobsN_samples=""
wall() {
  local t0 t1
  t0=$(date +%s.%N)
  env "$@" "${BUILD_DIR}/bench/fig17_large_scale" >/dev/null
  t1=$(date +%s.%N)
  awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.2f", b-a}'
}
ab_rounds=3
if [[ "${SMOKE}" == "1" ]]; then ab_rounds=1; fi
abcell=(UFAB_FIG17_K="${prof_k}" UFAB_FIG17_ONLY=uFAB,1,0.5 UFAB_JOBS=1 UFAB_OBS=0)
for ((i = 1; i <= ab_rounds; ++i)); do
  echo "[perf] fig17 cell k=${prof_k}, round ${i}/${ab_rounds}: UFAB_SHARDS=1 ..." >&2
  serial_samples+="${serial_samples:+,}$(wall "${abcell[@]}" UFAB_SHARDS=1)"
  echo "[perf] fig17 cell k=${prof_k}, round ${i}/${ab_rounds}: UFAB_SHARDS=${shards_ab} ..." >&2
  sharded_samples+="${sharded_samples:+,}$(wall "${abcell[@]}" UFAB_SHARDS="${shards_ab}")"
done

# Shard-scaling grid + sweep A/B (full lane only).
grid_entries=""
if [[ "${SMOKE}" == "0" ]]; then
  for s in 2 4 8; do
    echo "[perf] scaling grid: k=${prof_k} UFAB_SHARDS=${s} ..." >&2
    grid_entries+="${grid_entries:+,}${s}:auto:$(wall "${abcell[@]}" UFAB_SHARDS="${s}")"
  done
  if [[ "${cpus_online}" -ge 4 ]]; then
    echo "[perf] scaling grid: k=${prof_k} UFAB_SHARDS=4 threads ..." >&2
    grid_entries+="${grid_entries:+,}4:threads:$(wall "${abcell[@]}" UFAB_SHARDS=4 UFAB_SHARD_EXEC=threads)"
  fi
  for i in 1 2 3; do
    echo "[perf] fig17 k=4 grid, round ${i}/3: UFAB_JOBS=1 ..." >&2
    jobs1_samples+="${jobs1_samples:+,}$(wall UFAB_FIG17_K=4 UFAB_OBS=0 UFAB_JOBS=1)"
    echo "[perf] fig17 k=4 grid, round ${i}/3: UFAB_JOBS=${jobs} ..." >&2
    jobsN_samples+="${jobsN_samples:+,}$(wall UFAB_FIG17_K=4 UFAB_OBS=0 UFAB_JOBS="${jobs}")"
  done
fi

# First fig17 k=16 row: 1024 hosts, sharded + profiled, one run (it is the
# longest cell in the lane).  Full lane only; UFAB_PERF_SKIP_K16=1 skips.
k16_wall=""
k16_profile="null"
if [[ "${SMOKE}" == "0" && "${UFAB_PERF_SKIP_K16:-0}" != "1" ]]; then
  echo "[perf] fig17 k=16 cell (1024 hosts): UFAB_SHARDS=${shards_ab}, profiled ..." >&2
  k16_wall="$(wall UFAB_FIG17_K=16 UFAB_FIG17_ONLY=uFAB,1,0.5 UFAB_JOBS=1 UFAB_OBS=0 \
    UFAB_SHARDS="${shards_ab}" UFAB_PROF=1 UFAB_METRICS_DIR=bench_artifacts/prof-k16)"
  k16_profile="$(profile_of bench_artifacts/prof-k16)"
  echo "[perf] fig17 k=16: ${k16_wall}s" >&2
fi

# Threaded speedup floor: only meaningful where the host can actually run
# 4 shards in parallel.
speedup_floor="${UFAB_SHARD_SPEEDUP_FLOOR:-2.0}"
if [[ "${SMOKE}" == "0" && "${cpus_online}" -ge 4 ]]; then
  if ! python3 -c '
import sys
serial = min(float(x) for x in sys.argv[1].split(","))
threaded = None
for row in sys.argv[2].split(","):
    shards, exec_, wall = row.split(":")
    if shards == "4" and exec_ == "threads":
        threaded = float(wall)
floor = float(sys.argv[3])
if threaded is None:
    sys.exit(1)
speedup = serial / threaded if threaded > 0 else 0.0
print("[perf] threaded 4-shard speedup: %.2fx (floor %.1fx)" % (speedup, floor),
      file=sys.stderr)
sys.exit(0 if speedup >= floor else 1)
' "${serial_samples}" "${grid_entries}" "${speedup_floor}"; then
    echo "[perf] FAIL: threaded 4-shard speedup below ${speedup_floor}x on a ${cpus_online}-CPU host" >&2
    exit 1
  fi
else
  echo "[perf] ${cpus_online} CPU(s): recording shard wall clocks without a speedup gate" >&2
fi

python3 - "$MICRO_JSON" "$OUT" "$serial_samples" "$sharded_samples" \
  "$jobs1_samples" "$jobsN_samples" "$jobs" "$shards_ab" \
  "$serial_profile" "$sharded_profile" "$overhead_pct" \
  "$off_ms" "$on_ms" "$guard_pct" "$prof_k" "$cpus_online" "$grid_entries" \
  "$k16_wall" "$k16_profile" "$speedup_floor" "$off_samples" "$on_samples" <<'PY'
import json, platform, sys

(micro_path, out_path, serial_s, sharded_s,
 jobs1_s, jobsN_s, jobs, shards_ab,
 serial_profile, sharded_profile, overhead_pct, off_ms, on_ms,
 guard_pct, prof_k, cpus_online, grid_entries, k16_wall, k16_profile,
 speedup_floor, off_samples, on_samples) = sys.argv[1:23]
with open(micro_path) as f:
    micro = json.load(f)

entries = {}
for b in micro.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    entries[b["name"]] = {
        "real_time": b["real_time"],
        "cpu_time": b["cpu_time"],
        "time_unit": b["time_unit"],
        "iterations": b["iterations"],
    }

def samples(csv):
    return [float(x) for x in csv.split(",")] if csv else None

def ab(a_csv, b_csv):
    a, b = samples(a_csv), samples(b_csv)
    entry = {"a_samples_s": a, "b_samples_s": b,
             "a_min_s": min(a) if a else None,
             "b_min_s": min(b) if b else None}
    if a and b and min(b) > 0:
        entry["speedup_min_over_min"] = round(min(a) / min(b), 3)
    return entry

sharding = ab(serial_s, sharded_s)
sharding.update({"a": "UFAB_SHARDS=1", "b": f"UFAB_SHARDS={shards_ab}",
                 "workload": f"fig17 k={prof_k} cell uFAB,1,0.5 (UFAB_JOBS=1)",
                 "a_profile": json.loads(serial_profile),
                 "b_profile": json.loads(sharded_profile)})
sweep = ab(jobs1_s, jobsN_s)
sweep.update({"a": "UFAB_JOBS=1", "b": f"UFAB_JOBS={jobs}",
              "workload": "fig17 k=4 full grid"})

serial_p = json.loads(serial_profile)
sharded_p = json.loads(sharded_profile)
# The serial cell's engine throughput, keyed by workload for
# scripts/check_events_floor.py.
fig17_serial = {
    "workload": f"fig17 k={prof_k} cell uFAB,1,0.5 (serial, UFAB_JOBS=1)",
    "profile": serial_p,
}
guards = {
    "events_per_hop": (round(serial_p["events"] / serial_p["deliveries"], 3)
                       if serial_p.get("deliveries") else None),
    "events_per_hop_max": 1.5,
    "windows_per_epoch": (round(sharded_p["windows"] / sharded_p["epochs"], 2)
                          if sharded_p.get("epochs") else None),
    "windows_per_epoch_min": 5,
    "workload": f"fig17 k={prof_k} cell uFAB,1,0.5: serial and "
                f"UFAB_SHARDS={shards_ab} profiles",
}

grid = []
for row in (grid_entries.split(",") if grid_entries else []):
    shards, exec_, wall = row.split(":")
    entry = {"shards": int(shards), "exec": exec_, "wall_s": float(wall),
             "workload": f"fig17 k={prof_k} cell uFAB,1,0.5"}
    a = samples(serial_s)
    if a and float(wall) > 0:
        entry["speedup_vs_serial"] = round(min(a) / float(wall), 3)
    grid.append(entry)

k16 = None
if k16_wall:
    k16 = {"shards": int(shards_ab), "wall_s": float(k16_wall),
           "workload": "fig17 k=16 cell uFAB,1,0.5 (1024 hosts, UFAB_PROF=1)",
           "profile": json.loads(k16_profile)}

doc = {
    "schema": "ufab-bench-engine-v6",
    "notes": "interleaved min-of-N wall clocks (A B C A B C ...); speedups "
             "are min(A)/min(B).  On single-CPU hosts the sharded and sweep "
             "sides cannot beat serial — the lane still records every sample "
             "(never null) so the equivalence and epoch-amortization claims "
             "are auditable everywhere; the threaded speedup floor only "
             "gates on >=4-CPU hosts.  *_profile entries come from untimed "
             f"UFAB_PROF=1 runs of the k={prof_k} cell (see "
             "scripts/profile_report.py) and carry the per-event engine "
             "figures (events, events_per_sec, ns_per_event); prof_overhead "
             "is the guarded BM_ProfOverheadPair cost of enabling the profiler.  "
             "guards holds the two machine-independent checks: events per "
             "delivered hop on the serial cell (the link pipe) and "
             "lookahead windows per barrier on the sharded cell.",
    "host": {
        "machine": platform.machine(),
        "cpus_online": int(cpus_online),
    },
    "micro": entries,
    "prof_overhead": {
        "workload": "BM_ProfOverheadPair: the BM_Fig17Slice run phase, profiler "
                    "off vs on in adjacent pairs in one process, first side "
                    "alternating; median of 8 rounds' overheads (one process "
                    "of 16 pairs each); *_samples_ms are the rounds' means",
        "off_ms": float(off_ms),
        "on_ms": float(on_ms),
        "off_samples_ms": samples(off_samples),
        "on_samples_ms": samples(on_samples),
        "overhead_pct": float(overhead_pct),
        "guard_pct": float(guard_pct),
        "passivity": "stdout byte-identical",
    },
    "fig17_serial": fig17_serial,
    "fig17_sharding_ab": sharding,
    "fig17_sweep_ab": sweep,
    "guards": guards,
    "fig17_shard_grid": grid,
    "fig17_k16": k16,
    "speedup_floor": {"value": float(speedup_floor),
                      "gated": int(cpus_online) >= 4},
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
PY
