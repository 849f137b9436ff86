#!/usr/bin/env python3
"""Events-per-second floor guard for the perf lane.

Usage:
    scripts/check_events_floor.py BENCH_engine.json [--record]

Reads the serial fig17 cell's engine throughput out of BENCH_engine.json
(fig17_serial.profile.events_per_sec, keyed by the workload string so k=4
smoke and k=8 full runs track separate baselines) and
compares it against the committed baseline in
bench_baselines/events_per_sec.json:

  * no baseline for this workload -> record-only: the baseline file is
    written/updated and the guard passes.  Commit the file to start
    enforcing.
  * baseline present -> FAIL if throughput fell more than the tolerance
    below it (UFAB_EVENTS_FLOOR_PCT, default 15).  A rise beyond the same
    tolerance passes with a nudge to refresh the baseline (re-run with
    --record) so the floor ratchets upward with the engine.

--record forces a baseline rewrite from the current run.

events_per_sec is wall-clock bound, so the tolerance must absorb host
variance; CI pins one runner class, and local runs can widen the band via
the environment knob.  Stdlib only.
"""

import json
import os
import sys

BASELINE_PATH = "bench_baselines/events_per_sec.json"


def fail(msg):
    print("check_events_floor: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def main(argv):
    args = [a for a in argv[1:] if a != "--record"]
    record = "--record" in argv[1:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0], "r", encoding="utf-8") as f:
        bench = json.load(f)
    serial = bench.get("fig17_serial")
    if not isinstance(serial, dict):
        fail("%s has no fig17_serial entry (schema %s)"
             % (args[0], bench.get("schema")))
    profile = serial.get("profile") or {}
    eps = profile.get("events_per_sec", 0.0)
    key = serial.get("workload", "unknown")
    if eps <= 0:
        fail("no events_per_sec in fig17_serial.profile")

    baselines = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as f:
            baselines = json.load(f)

    tolerance = float(os.environ.get("UFAB_EVENTS_FLOOR_PCT", "15"))
    base = baselines.get(key)
    if base is not None and not record:
        floor = base * (1.0 - tolerance / 100.0)
        ceiling = base * (1.0 + tolerance / 100.0)
        print("events_per_sec: %.3g (baseline %.3g, floor %.3g, +/-%.0f%%) [%s]"
              % (eps, base, floor, tolerance, key))
        if eps < floor:
            fail("engine throughput fell %.1f%% below the recorded baseline"
                 % (100.0 * (1.0 - eps / base)))
        if eps > ceiling:
            print("note: throughput is %.1f%% above baseline — refresh with "
                  "--record to ratchet the floor" % (100.0 * (eps / base - 1.0)))
        return 0

    baselines[key] = eps
    os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump(baselines, f, indent=2, sort_keys=True)
        f.write("\n")
    print("recorded baseline events_per_sec=%.3g for '%s' in %s%s"
          % (eps, key, BASELINE_PATH,
             "" if record else " (no prior baseline; commit it to enforce)"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
