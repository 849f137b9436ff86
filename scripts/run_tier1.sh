#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite.
#
#   scripts/run_tier1.sh                 # plain RelWithDebInfo build
#   scripts/run_tier1.sh address,undefined
#                                        # sanitized lane (ASan+UBSan)
#   scripts/run_tier1.sh thread          # TSan lane (sharded engine races)
#   scripts/run_tier1.sh debug           # Debug lane: no NDEBUG, so the
#                                        # debug-only contract checks run (WFQ
#                                        # arm audit, fused-link pipe order)
#
# Each lane gets its own build dir so object files never mix.  The debug lane
# skips SoakRunner.OneSimulatedHourCompletesWithBoundedMemory: unoptimized it
# takes ~7.5 minutes, and the soak lane already runs the simulated hour.
# Environment (UFAB_SHARDS, UFAB_SHARD_EXEC, UFAB_JOBS, ...) passes through
# to the tests: CI's sharded lane runs `UFAB_SHARDS=4 scripts/run_tier1.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

LANE="${1:-}"
SANITIZE="${LANE}"
CMAKE_ARGS=()
CTEST_ARGS=()
case "${LANE}" in
  "")       BUILD_DIR="build" ;;
  debug)    BUILD_DIR="build-debug"
            SANITIZE=""
            CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug)
            CTEST_ARGS=(-E '^SoakRunner\.OneSimulatedHourCompletesWithBoundedMemory$') ;;
  thread)   BUILD_DIR="build-tsan" ;;
  *)        BUILD_DIR="build-sanitize" ;;
esac
CMAKE_ARGS+=(-DUFAB_SANITIZE="${SANITIZE}")

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" -j "$(nproc)" --output-on-failure ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
