#!/usr/bin/env bash
# Build and run the test suite under a sanitizer build.
#
# Usage: scripts/run_sanitized_tests.sh [--sanitize=<set>] [extra ctest args...]
#
#   --sanitize=<set>   comma-separated set passed to -DDORA_SANITIZE
#                      (default: address,undefined). Notably
#                      --sanitize=thread runs TSan over the parallel
#                      execution engine.
#
# This script covers runtime checking only; static checking lives in
# scripts/ci.sh: the `analyze` step (dora-analyze line and structural
# rules, always run) and the `lint` stage (clang-tidy and the clang
# -Wthread-safety build; DORA_SKIP_LINT=1 to skip). The fuzz smoke
# suite (fuzz_tests) runs here with full effect: ASan/UBSan turn a
# silently-tolerated out-of-bounds read in a deserializer into a hard
# failure.
#
# Every sanitizer set gets its own build tree (build-sanitize-<set>).
# If a tree already exists but was configured with a different
# DORA_SANITIZE value, the script fails loudly instead of silently
# running binaries built with the wrong instrumentation.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

sanitize="address,undefined"
ctest_args=()
for arg in "$@"; do
    case "${arg}" in
        --sanitize=*) sanitize="${arg#--sanitize=}" ;;
        *) ctest_args+=("${arg}") ;;
    esac
done

build_dir="${repo_root}/build-sanitize-${sanitize//,/-}"
cache="${build_dir}/CMakeCache.txt"
if [[ -d "${build_dir}" && ! -f "${cache}" ]]; then
    echo "error: ${build_dir} exists but has no CMakeCache.txt;" \
         "remove it and re-run" >&2
    exit 1
fi
if [[ -f "${cache}" ]]; then
    configured="$(sed -n 's/^DORA_SANITIZE:[A-Z]*=//p' "${cache}")"
    if [[ "${configured}" != "${sanitize}" ]]; then
        echo "error: stale build dir ${build_dir}:" \
             "configured with DORA_SANITIZE='${configured}'," \
             "requested '${sanitize}'. Remove the directory and" \
             "re-run." >&2
        exit 1
    fi
fi

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDORA_SANITIZE="${sanitize}"
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error makes sanitizer findings fail the test run instead of
# scrolling past as warnings.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

cd "${build_dir}"
if [[ "${sanitize}" == "thread" && ${#ctest_args[@]} -eq 0 ]]; then
    # Default TSan scope: the concurrency-bearing suites. ParallelMap
    # also matches ParallelMapCdf — the regression test for the old
    # lazily-sorting-under-const EmpiricalCdf race (stats/cdf.hh).
    # ParallelDeterminism, FleetDeterminism and CellExecutor drive the
    # cell executor's one threaded dispatch (sim/cell_executor.hh),
    # which the harness, trainer and fleet share; ParallelDeterminism
    # also holds the exact-mode, faulted and trainer identity checks,
    # and RunContextSnapshot the mid-run snapshot rewind.
    # CellExecutorRiders and
    # EndToEnd.RidersReproduceTheRunOneLoop run governor riders
    # (DESIGN.md §5m) on parallelFor threads, the latter sharing one
    # trained const ModelBundle. ProcSupervisorTest and KillResume
    # (which also matches FleetKillResume) drive the process tier
    # (DESIGN.md §5f); one fleet case kills a worker from a watcher
    # thread beside the supervisor. Pass explicit ctest args to widen
    # it.
    ctest_args=(-R 'JobCount|ParallelFor|ParallelMap|ParallelDeterminism|RunContextSnapshot|FleetDeterminism|CellExecutor|CellExecutorRiders|EndToEnd\.RidersReproduceTheRunOneLoop|ProcSupervisorTest|KillResume')
fi
ctest --output-on-failure "${ctest_args[@]}"
