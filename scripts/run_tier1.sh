#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
#   scripts/run_tier1.sh                 # plain RelWithDebInfo build
#   scripts/run_tier1.sh address,undefined
#                                        # sanitized lane (ASan+UBSan)
#   scripts/run_tier1.sh thread          # TSan lane (sharded engine races)
#   scripts/run_tier1.sh debug           # Debug lane: no NDEBUG, so the
#                                        # debug-only contract checks run (WFQ
#                                        # arm audit, link pipe contract,
#                                        # RTO sweep lateness, calendar
#                                        # occupancy bitmap)
#
# Each lane gets its own build dir so object files never mix.  Every lane runs
# the whole suite; in the debug lane that includes the simulated soak hour
# (~2 minutes unoptimized on a 4-vCPU host, under ctest's 600 s timeout), so
# the contract checks also hold over an hour of rotating faults.
# Environment (UFAB_SHARDS, UFAB_SHARD_EXEC, UFAB_JOBS, ...) passes through
# to the tests: CI's sharded lane runs `UFAB_SHARDS=4 scripts/run_tier1.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

LANE="${1:-}"
SANITIZE="${LANE}"
CMAKE_ARGS=()
case "${LANE}" in
  "")       BUILD_DIR="build" ;;
  debug)    BUILD_DIR="build-debug"
            SANITIZE=""
            CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug) ;;
  thread)   BUILD_DIR="build-tsan" ;;
  *)        BUILD_DIR="build-sanitize" ;;
esac
CMAKE_ARGS+=(-DUFAB_SANITIZE="${SANITIZE}")

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" -j "$(nproc)" --output-on-failure
