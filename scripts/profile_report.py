#!/usr/bin/env python3
"""Render a uFAB engine profile (<bench>.<variant>.profile.json) as a
human-readable imbalance/stall report.

Usage:
    scripts/profile_report.py <profile.json> [more.profile.json ...]
    scripts/profile_report.py --json <profile.json>

The profile is the shard x scope wall-time matrix written by
harness::write_bench_artifacts when UFAB_PROF >= 1 (schema ufab-profile-v1).
The report answers the two questions the sharding work needs answered:

  * stall_fraction — of all shard wall time, how much was spent parked at
    epoch barriers instead of doing useful work?
  * shard_imbalance — max(busy) / mean(busy): how lopsided is the partition?
    1.0 is perfectly balanced; the barrier makes every epoch as slow as the
    busiest shard, so imbalance is an upper bound on the speedup left.

  * events / events_per_sec / ns_per_event — engine throughput: total events
    across shards over the run's wall clock.  `deliveries` counts packet-hop
    delivery events (scope dispatch_deliver); events per delivery is what the
    link pipe (DESIGN.md §13.1) holds near 1, so the perf lane
    guards it.

With --json, emits exactly those derived numbers (single file only) so
scripts/run_perf.sh can merge them into BENCH_engine.json.  Stdlib only.
"""

import json
import sys

BAR_WIDTH = 40


def fail(msg):
    print("profile_report: ERROR: %s" % msg, file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        fail("%s is not valid JSON: %s" % (path, e))
    if not isinstance(doc, dict) or doc.get("schema") != "ufab-profile-v1":
        fail("%s is not a ufab-profile-v1 profile" % path)
    return doc


def fmt_ms(ns):
    return "%.2f" % (ns / 1e6)


def bar(frac, width=BAR_WIDTH):
    filled = int(round(max(0.0, min(1.0, frac)) * width))
    return "#" * filled + "." * (width - filled)


def occupancy_summary(hist):
    """Median log2 bucket of a histogram: 'empty', or a [lo, hi) range."""
    total = sum(hist)
    if total == 0:
        return "no samples"
    acc = 0
    for i, count in enumerate(hist):
        acc += count
        if acc * 2 >= total:
            if i == 0:
                return "typically empty"
            return "typically %d-%d events" % (2 ** (i - 1), 2 ** i - 1)
    return "no samples"


def report(path, doc):
    derived = doc.get("derived", {})
    epochs = doc.get("epochs", {})
    shards = doc.get("shards_detail", [])
    print("=== %s ===" % path)
    events_total = sum(s.get("events", 0) for s in shards)
    wall_ns = doc.get("wall_ns", 0.0)
    print("shards=%d threaded=%s level=%d lookahead_ns=%s wall_ms=%s"
          % (doc.get("shards", 1), doc.get("threaded", False),
             doc.get("level", 1), doc.get("lookahead_ns", -1),
             fmt_ms(wall_ns)))
    print("events=%d events_per_sec=%.3g ns_per_event=%.1f"
          % (events_total,
             events_total / (wall_ns / 1e9) if wall_ns > 0 else 0.0,
             wall_ns / events_total if events_total > 0 else 0.0))
    print("epochs=%d windows=%d barrier_skips=%d crossings_injected=%d "
          "epoch_windows=%d"
          % (epochs.get("count", 0), epochs.get("windows", 0),
             epochs.get("barrier_skips", 0), epochs.get("crossings_injected", 0),
             doc.get("epoch_windows", 1)))
    handoff = doc.get("handoff", {})
    if handoff:
        print("handoff: max_drain_batch=%d mailbox_flushes=%d"
              % (handoff.get("max_drain_batch", 0), handoff.get("mailbox_flushes", 0)))
    print("stall_fraction=%.4f shard_imbalance=%.3f"
          % (derived.get("stall_fraction", 0.0),
             derived.get("shard_imbalance", 1.0)))

    # Epoch-length distribution: simulated time amortized per barrier.  A
    # healthy multi-window run piles up in buckets well above the lookahead.
    epoch_hist = doc.get("epoch_len_ns_log2", [])
    if any(epoch_hist):
        total = sum(epoch_hist)
        peak = max(epoch_hist)
        print("\nepoch length (sim-ns per barrier, log2 buckets):")
        for i, count in enumerate(epoch_hist):
            if count == 0:
                continue
            print("  [%11d, %11d) %8d %5.1f%%  %s"
                  % (2 ** (i - 1) if i > 0 else 0, 2 ** i, count,
                     100.0 * count / total, bar(count / peak, 20)))

    # Per-shard busy/stall split, busy bar normalized to the busiest shard.
    busiest = max((s.get("busy_ns", 0.0) for s in shards), default=0.0)
    print("\n%-6s %10s %10s %7s %9s  %s"
          % ("shard", "busy_ms", "stall_ms", "stall%", "events", "busy (vs busiest)"))
    for s in shards:
        busy = s.get("busy_ns", 0.0)
        stall = s.get("stall_ns", 0.0)
        stall_pct = 100.0 * stall / (busy + stall) if busy + stall > 0 else 0.0
        print("%-6d %10s %10s %6.1f%% %9d  %s"
              % (s.get("shard", 0), fmt_ms(busy), fmt_ms(stall), stall_pct,
                 s.get("events", 0),
                 bar(busy / busiest if busiest > 0 else 0.0)))

    # Scope breakdown aggregated across shards.
    scope_totals = {}
    scope_counts = {}
    for s in shards:
        for name, ns in s.get("scope_ns", {}).items():
            scope_totals[name] = scope_totals.get(name, 0.0) + ns
        for name, n in s.get("scope_count", {}).items():
            scope_counts[name] = scope_counts.get(name, 0) + n
    grand = sum(scope_totals.values())
    print("\n%-18s %10s %7s %12s %9s" % ("scope", "total_ms", "share", "calls", "ns/call"))
    for name in sorted(scope_totals, key=lambda n: -scope_totals[n]):
        total = scope_totals[name]
        calls = scope_counts.get(name, 0)
        if total == 0.0 and calls == 0:
            continue
        print("%-18s %10s %6.1f%% %12d %9.1f"
              % (name, fmt_ms(total),
                 100.0 * total / grand if grand > 0 else 0.0, calls,
                 total / calls if calls > 0 else 0.0))

    # Calendar occupancy from the log2 sample histograms.
    print("\nqueue occupancy (sampled every %d sim-ns):" % doc.get("sample_period_ns", 0))
    for s in shards:
        queue = s.get("queue", {})
        print("  shard %d: %d samples, ring %s, overflow %s"
              % (s.get("shard", 0), queue.get("samples", 0),
                 occupancy_summary(queue.get("ring_occ_log2", [])),
                 occupancy_summary(queue.get("overflow_occ_log2", []))))
    print()


def main(argv):
    args = [a for a in argv[1:] if a != "--json"]
    as_json = "--json" in argv[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if as_json:
        if len(args) != 1:
            fail("--json takes exactly one profile")
        doc = load(args[0])
        derived = doc.get("derived", {})
        epochs = doc.get("epochs", {})
        shards = doc.get("shards_detail", [])
        events_total = sum(s.get("events", 0) for s in shards)
        deliveries = sum(s.get("scope_count", {}).get("dispatch_deliver", 0) for s in shards)
        wall_ns = doc.get("wall_ns", 0.0)
        print(json.dumps({
            "events": events_total,
            "deliveries": deliveries,
            "events_per_sec": (events_total / (wall_ns / 1e9)
                               if wall_ns > 0 else 0.0),
            "ns_per_event": (wall_ns / events_total
                             if events_total > 0 else 0.0),
            "stall_fraction": derived.get("stall_fraction", 0.0),
            "shard_imbalance": derived.get("shard_imbalance", 1.0),
            "busy_ns_total": derived.get("busy_ns_total", 0.0),
            "stall_ns_total": derived.get("stall_ns_total", 0.0),
            "shards": doc.get("shards", 1),
            "threaded": doc.get("threaded", False),
            "epochs": epochs.get("count", 0),
            "windows": epochs.get("windows", 0),
            "barrier_skips": epochs.get("barrier_skips", 0),
            "crossings_injected": epochs.get("crossings_injected", 0),
            "epoch_windows": doc.get("epoch_windows", 1),
            "handoff_max_batch": doc.get("handoff", {}).get("max_drain_batch", 0),
        }))
        return 0
    for path in args:
        report(path, load(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
