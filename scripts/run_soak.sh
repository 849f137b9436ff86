#!/usr/bin/env bash
# Soak gate: build and run the long-horizon soak harness (bench/soak).
#
#   scripts/run_soak.sh              # full soak: 1 simulated hour (~54 s wall
#                                    # on a 4-vCPU Xeon VM)
#   scripts/run_soak.sh --smoke      # CI smoke shape (~seconds), fixed seed
#
# The soak exits nonzero on any invariant violation or SLO breach, so this
# script is a gate, not a report.  Knobs pass through the environment:
#
#   UFAB_SOAK_SEED        episode/workload seed        (default 1)
#   UFAB_SOAK_DURATION_S  simulated traffic seconds    (default 3600)
#   UFAB_SOAK_WINDOW_MS   SLO window width             (default 1000)
#   UFAB_SOAK_CSV         per-window SLO rows          (default soak_slo.csv)
#   UFAB_SHARDS           engine shards (the fault plane pins execution to
#                         sequential epochs; the run reports why)
#   UFAB_SANITIZE         e.g. "address,undefined": sanitized build dir
#
# A sanitized selection gets its own build dir, mirroring run_tier1.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
fi

SANITIZE="${UFAB_SANITIZE:-}"
case "${SANITIZE}" in
  "")       BUILD_DIR="build" ;;
  thread)   BUILD_DIR="build-tsan" ;;
  *)        BUILD_DIR="build-sanitize" ;;
esac

cmake -B "${BUILD_DIR}" -S . -DUFAB_SANITIZE="${SANITIZE}"
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target soak

UFAB_SOAK_SMOKE="${SMOKE}" "${BUILD_DIR}/bench/soak"
