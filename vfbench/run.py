#!/usr/bin/env python3
"""Layered benchmark of the uFAB simulator.

Run from the root of a source checkout:

    python3 vfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the library and the benchmark runner from source into
.bench_build/, then runs the chosen workload (fattree_websearch, testbed_rpc
or soak_faults) one process per run, back to back, for about --seconds.

A fixed reference computation (reference.cpp) is timed before and after
every run.  The reported times are scaled by it to one host speed, which
cancels most of the drift in this host's speed; the unscaled medians are
printed beside them.

--trace 0 reports the end-to-end metrics (medians over the untraced runs).
--trace 1 alternates untraced and traced runs on one input; the spans the
traced runs record at the library's public layer boundaries give the
per-layer metrics, next to the layer microbenchmarks.

Every run's simulated outputs are checked (see README.md).  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  Metric names
and units come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "vfbench_run")
REFERENCE = os.path.join(BUILD, "vfbench_ref")
MICRO = os.path.join(BUILD, "micro_datastructures")
WORKLOADS = ("fattree_websearch", "testbed_rpc", "soak_faults")
RUN_TIMEOUT_S = 60
# Reported times are scaled to a host on which the reference takes this long
# (its typical time on the 4-vCPU Xeon VM the benchmark was tuned on).
REF_NOMINAL_S = 0.2
SUB_SEEDS = 32
MIN_RUNS = 5
MIN_TRACE_RUNS = 4

# Output checks: simulated results every run must reach (the cells measure
# ~99% flows done at ~45 us RTT p99, and ~210 k QPS at ~300 us QCT p99).
BASE_RTT_US = 24.0
CHECKS = {
    "fattree_websearch": [
        ("workload.flows_done_pct", ">=", 95.0),
        ("workload.rtt_p99_us", "<=", 4 * BASE_RTT_US),
    ],
    "testbed_rpc": [
        ("workload.mc_qct_p99_us", "<=", 1000.0),
        ("workload.mc_qps", ">=", 150000.0),
    ],
    "soak_faults": [("soak.invariant_violations", "==", 0)],
}
# SoakReport::ok() also holds every SLO, but its clean-window FCT p99 limit
# (400 ms) is tuned for hour-long soaks: over shorter horizons a few seeds
# breach it (3 of 32 seeds at 60 simulated seconds, 2 of 16 at 600 s), so
# that one SLO is recorded (soak.ok), not gated.  Any other breach fails.
UNGATED_SLO = "clean-window FCT p99"

# Layer microbenchmarks recorded beside their in-situ counterparts:
# metric -> (google-benchmark case, operations per iteration).
MICROBENCHES = {
    "micro.wfq_next_ns": ("BM_WfqNext/512", 1),  # vs transport.pull_ns
    "micro.core_agent_probe_ns": ("BM_CoreAgentProbe", 1),  # vs telemetry.probe_ns
    "micro.flat_fib_ns": ("BM_FlatFib/2", 1),
    "micro.event_queue_ns": ("BM_EventQueue", 64),  # vs sim.ns_per_event
    "micro.link_pipeline_hop_ns": ("BM_LinkPipelineHop/1", 1),
    "micro.packet_make_ns": ("BM_PacketMake", 1),
}


def die(msg):
    print(f"vfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The environment for every child: no UFAB_* knob may steer the engine
    (sharding, fused links, epochs, profiling, observability)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("UFAB_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no ufab sources under {ROOT}/src; run from a source checkout")
    env = clean_env()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD], check=True,
                       stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "vfbench_run",
                    "vfbench_ref", "micro_datastructures"], check=True, stdout=sys.stderr,
                   env=env)


def reference():
    """Seconds the host-speed reference takes right now (see reference.cpp)."""
    try:
        res = subprocess.run([REFERENCE], capture_output=True, text=True, env=clean_env(),
                             timeout=RUN_TIMEOUT_S)
        if res.returncode != 0:
            die(f"reference exited with code {res.returncode}")
        return json.loads(res.stdout)["ref_s"]
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        die(f"reference failed: {e}")


def run_once(workload, seed, traced=False, extra=()):
    """One workload process.  Returns its parsed record plus peak_rss_mb, or
    a record with "error" set."""
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "work"))
    cmd = [RUNNER, workload, "--seed", str(seed), "--out", work, *extra]
    if traced:
        cmd.append("--trace")
    out_path = os.path.join(work, "stdout.json")
    try:
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, cwd=work, env=clean_env())
            # A blocking wait4 (not Popen.wait) keeps the child's own peak RSS
            # and leaves every CPU to the run; a timer enforces the limit.
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(RUN_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
        if proc.returncode != 0:
            return {"error": f"exit code {proc.returncode}"}
        with open(out_path, encoding="utf-8") as f:
            rec = json.loads(f.read())
        rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
        return rec
    except (OSError, ValueError) as e:
        return {"error": str(e)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def sub_seeds(seed, n):
    """The inputs of one invocation: `n` workload seeds derived from --seed.
    The untraced runs take them in turn, the first one twice to show that an
    input repeats, so a median spans nearly as many inputs as runs (websearch
    sizes are heavy-tailed: one input's event count can be 10% off another's,
    and its wall time with it)."""
    return [int(hashlib.sha256(f"{seed}/{i}".encode()).hexdigest()[:15], 16) for i in range(n)]


def digest(rec):
    outputs = rec["run"]["outputs"]
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:16]


def check(workload, rec, want_digest):
    """Reasons this run's outputs are wrong (empty when correct)."""
    if "error" in rec:
        return [rec["error"]]
    out = rec["run"]["outputs"]
    bad = []
    for name, op, bound in CHECKS[workload]:
        v = out.get(name)
        ok = v is not None and {">=": v >= bound, "<=": v <= bound, "==": v == bound}[op]
        if not ok:
            bad.append(f"{name}={v} not {op} {bound}")
    if workload == "fattree_websearch":
        eng = rec["run"]["engine"]
        if not (eng["shard_count"] == 4 and eng["threaded"]):
            bad.append(f"engine ran {eng}, not 4 threaded shards")
    if workload == "soak_faults":
        bad.extend(f"SLO breach: {b}" for b in rec["run"]["slo_breaches"]
                   if not b.startswith(UNGATED_SLO))
    if want_digest is not None and digest(rec) != want_digest:
        bad.append(f"output digest {digest(rec)} != {want_digest} of an earlier run")
    return bad


def attempt(workload, seed, state, traced=False):
    """One counted run; returns its record when it passes its output check."""
    rec = run_once(workload, seed, traced=traced)
    state["attempted"] += 1
    problems = check(workload, rec, state["digests"].get(seed))
    if "error" not in rec:
        state["digests"].setdefault(seed, digest(rec))
        state["seen"][traced].add(digest(rec))
    if problems:
        state["failed"] += 1
        state["problems"].extend(f"seed {seed}{' traced' if traced else ''}: {p}"
                                 for p in problems)
        return None
    return rec


def measure(workload, plan, seconds, min_runs, state):
    """Runs back to back, cycling over `plan` ((seed, traced) pairs): another
    starts while it is expected to end inside `seconds`.  The reference runs
    between them; each run's "ref_s" is the mean of the two beside it.
    Returns the passing untraced and traced records."""
    runs = {False: [], True: []}
    t0 = time.monotonic()
    ref_before = reference()
    n = 0
    while True:
        seed, traced = plan[n % len(plan)]
        rec = attempt(workload, seed, state, traced)
        ref_after = reference()
        n += 1
        if rec is not None:
            rec["ref_s"] = (ref_before + ref_after) / 2
            runs[traced].append(rec)
        ref_before = ref_after
        if n >= min_runs and (time.monotonic() - t0) * (n + 1) / n > seconds:
            return runs[False], runs[True]


def equivalence(seed, state):
    """The fattree cell at k=4 must give identical simulated outputs with one
    canonical shard and with 4 threaded shards (untimed)."""
    one = run_once("fattree_websearch", seed, extra=("--k", "4", "--shards", "1"))
    four = run_once("fattree_websearch", seed, extra=("--k", "4", "--shards", "4"))
    for rec in (one, four):
        if "error" in rec:
            state["problems"].append(f"equivalence run: {rec['error']}")
            return False
    same = digest(one) == digest(four)
    if not same:
        state["problems"].append(
            f"k=4 outputs differ: 1 shard {one['run']['outputs']} vs 4 {four['run']['outputs']}")
    return same


def microbenches():
    cases = "|".join(c for c, _ in MICROBENCHES.values())
    res = subprocess.run([MICRO, f"--benchmark_filter=^({cases})$", "--benchmark_format=json",
                          "--benchmark_min_time=0.2"], check=True, capture_output=True,
                         text=True, cwd=os.path.join(BUILD, "work"), env=clean_env())
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    by_name = {b["name"]: b for b in json.loads(res.stdout)["benchmarks"]}
    out = {}
    for metric, (case, ops) in MICROBENCHES.items():
        b = by_name[case]
        if "items_per_second" in b:
            out[metric] = 1e9 / b["items_per_second"]
        else:
            out[metric] = b["real_time"] * scale[b["time_unit"]] / ops
    return out


def med(runs, path):
    vals = []
    for r in runs:
        v = r
        for p in path:
            v = v[p]
        vals.append(v)
    return statistics.median(vals)


def scaled(runs, phase):
    """Median over runs of a timing, each scaled by the reference beside it
    to a host on which the reference takes REF_NOMINAL_S."""
    return statistics.median(r["run"]["timing"][phase] * REF_NOMINAL_S / r["ref_s"] for r in runs)


def end_to_end(runs):
    return {
        "wall_s": scaled(runs, "wall_s"),
        "setup_s": scaled(runs, "setup_s"),
        "peak_rss_mb": med(runs, ("peak_rss_mb",)),
    }


def unscaled(runs):
    """The medians as measured, printed beside the scaled metrics."""
    return {
        "unscaled wall_s": med(runs, ("run", "timing", "wall_s")),
        "unscaled setup_s": med(runs, ("run", "timing", "setup_s")),
        "reference ref_s": med(runs, ("ref_s",)),
    }


def per_layer(workload, untraced, traced, micro, units):
    """Per-layer metrics: spans and profiler scopes from the first traced run;
    whole-run rates from the untraced median (tracing inflates them)."""
    run = traced[0]["run"]
    t = run["timing"]
    out = run["outputs"]
    m = {k: 0.0 for k in units}
    m.update(micro)
    m.update((k, v) for k, v in out.items() if k in m)  # sim.events, workload.*, soak.*
    run_s = med(untraced, ("run", "timing", "run_s"))
    events = out["sim.events"]
    m["sim.events_per_s"] = events / run_s
    m["sim.ns_per_event"] = 1e9 * run_s / events
    m["trace.overhead_pct"] = 100.0 * (scaled(traced, "wall_s") / scaled(untraced, "wall_s") - 1)
    m["run.wall_s"] = med(untraced, ("run", "timing", "wall_s"))
    m["host.ref_s"] = med(untraced + traced, ("ref_s",))
    m["shard.cpu_s"] = med(untraced, ("run", "timing", "run_cpu_s"))
    if workload == "soak_faults":
        # SoakRunner keeps its fabric private: only its report is visible.
        m["soak.sim_s_per_wall_s"] = out["soak.sim_s"] / run_s
        return m

    c = run["counts"]
    s = run["spans"]
    prof = run["profile"]
    shards = prof["shards_detail"]
    scope = lambda name: sum(sd["scope_ns"][name] for sd in shards) / 1e9
    hops = sum(sd["scope_count"]["dispatch_deliver"] for sd in shards)
    tapped = s["rx_busy_s"] + s["pull_busy_s"] + s["meter_busy_s"] + s["probe_busy_s"]
    thread_s = t["run_s"] * len(shards) - prof["derived"]["stall_ns_total"] / 1e9
    m.update({
        "sim.hops": hops,
        "sim.events_per_hop": events / hops,
        "sim.queue_pop_s": scope("queue_pop"),
        "sim.dispatch_deliver_s": scope("dispatch_deliver"),
        "sim.dispatch_closure_s": scope("dispatch_closure"),
        "sim.residual_s": thread_s - tapped,
        "sim.pending_max": s["pending_max"],
        "shard.crossings": c["shard.crossings"],
        "shard.epochs": prof["epochs"]["count"],
        "shard.barrier_wait_s": c["shard.barrier_wait_s"],
        "shard.stall_fraction": prof["derived"]["stall_fraction"],
        "shard.imbalance": c["shard.imbalance"],
        "shard.mailbox_flushes": c["shard.mailbox_flushes"],
        "shard.handoff_max_batch": c["shard.handoff_max_batch"],
        "link.wire_gb": c["link.wire_bytes"] / 1e9,
        "link.drops": c["link.drops"],
        "link.max_queue_kb": c["link.max_queue_bytes"] / 1e3,
        "pool.packets_allocated": c["pool.packets_allocated"],
        "pool.in_use_hwm": c["pool.in_use_hwm"],
        "topo.build_s": med(untraced, ("run", "timing", "topo.build_s")),
        "topo.partition_s": med(untraced, ("run", "timing", "topo.partition_s")),
        "harness.install_s": med(untraced, ("run", "timing", "harness.install_s")),
        "workload.gen_s": med(untraced, ("run", "timing", "workload.gen_s")),
        "transport.connections": c["transport.connections"],
        "telemetry.probes": s["probe_calls"],
        "telemetry.busy_s": s["probe_busy_s"],
        "telemetry.probe_ns": 1e9 * s["probe_busy_s"] / max(1, s["probe_calls"]),
        "telemetry.fp_omission_pct": 100.0 * c["telemetry.fp_omissions"] / max(1, s["probe_calls"]),
        "transport.rx_calls": s["rx_calls"],
        "transport.rx_busy_s": s["rx_busy_s"],
        "transport.rx_ns": 1e9 * s["rx_busy_s"] / max(1, s["rx_calls"]),
        "transport.pull_calls": s["pull_calls"],
        "transport.pull_busy_s": s["pull_busy_s"],
        "transport.pull_ns": 1e9 * s["pull_busy_s"] / max(1, s["pull_calls"]),
        "transport.empty_pull_pct": 100.0 * s["empty_pulls"] / max(1, s["pull_calls"]),
        "transport.rtx_pct": 100.0 * c["transport.retransmits"]
                             / max(1, s["pull_calls"] - s["empty_pulls"]),
        "transport.rtt_samples": c["transport.rtt_samples"],
        "ufab.probes_sent": c["ufab.probes_sent"],
        "ufab.probe_overhead_pct": 100.0 * c["ufab.probe_bytes"] / max(1, c["link.host_wire_bytes"]),
        "ufab.migrations": c["ufab.migrations"],
        "ufab.probe_timeouts": c["ufab.probe_timeouts"],
        "stats.meter_busy_s": s["meter_busy_s"],
        "stats.meter_ns": 1e9 * s["meter_busy_s"] / max(1, s["meter_calls"]),
        "stats.report_s": med(untraced, ("run", "timing", "report_s")),
        "obs.export_s": med(untraced, ("run", "timing", "export_s")),
        "obs.artifact_mb": run.get("artifact_bytes", 0) / 1e6,
    })
    return m


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({e["name"]: e["unit"] for e in spec["end_to_end"]},
            {e["name"]: e["unit"] for e in spec["per_layer"]})


def host_record():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    units_e2e, units_layer = load_units()
    build()
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)

    seeds = sub_seeds(args.seed, SUB_SEEDS)
    state = {"attempted": 0, "failed": 0, "problems": [], "digests": {},
             "seen": {False: set(), True: set()}}
    equivalent = passive = True
    if args.workload == "fattree_websearch":
        equivalent = equivalence(seeds[0], state)

    metrics = {}
    if args.trace == 0:
        runs, _ = measure(args.workload, [(s, False) for s in seeds[:1] + seeds], args.seconds,
                          MIN_RUNS, state)
        if runs:
            metrics = end_to_end(runs)
        units = units_e2e
    else:
        # Untraced and traced runs alternate on one input, so the per-layer
        # numbers and the tracing overhead compare like with like.
        runs, traced = measure(args.workload, [(seeds[0], False), (seeds[0], True)],
                               args.seconds, MIN_TRACE_RUNS, state)
        passive = state["seen"][True] <= state["seen"][False]
        if runs and traced:
            metrics = per_layer(args.workload, runs, traced, microbenches(), units_layer)
        units = units_layer

    if metrics and set(metrics) != set(units):
        die(f"metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    first = runs[0] if runs else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "sub_seeds": [s for s in seeds if s in state["digests"]],
        "host": host_record(),
        "compiler": first.get("compiler"),
        "build_type": first.get("build_type"),
        "engine": first.get("run", {}).get("engine"),
        "runs": len(runs),
        "wall_s_per_run": [r["run"]["timing"]["wall_s"] for r in runs],
        "ref_s_per_run": [r["ref_s"] for r in runs],
        "output_digests": state["digests"],
        "outputs": first.get("run", {}).get("outputs"),
        "k4_one_vs_four_shards_identical": equivalent,
        "traced_outputs_identical": passive,
        "problems": state["problems"],
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:>18.6g} {units[name]}")
    if args.trace == 0 and runs:
        for name, value in unscaled(runs).items():
            print(f"{name:32s} {value:>18.6g} s")
    correct = state["failed"] == 0 and equivalent and passive and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
