#!/usr/bin/env bash
# Single-entry CI pipeline: configure + build, run the dora-analyze
# zero-findings gate and the lint stage (clang-tidy, clang
# thread-safety build), run the full test suite (which includes the
# WorkCounts gate: exact per-run work counts of benchmark slices),
# sweep the sanitizer builds, and gate the adaptive fast path's
# accuracy against exact-ticks mode. No stage compares wall-clock
# times: speed is judged by the repository benchmark (benchmark/),
# parent against change in alternating runs.
#
# Usage: scripts/ci.sh [--skip-sanitizers] [--build-dir DIR]
#
# Environment:
#   DORA_SKIP_LINT=1         skip the lint stage (clang-tidy and the
#                            clang thread-safety build, the legs that
#                            need an optional toolchain)
#   DORA_CI_SKIP_NATIVE=1    skip the -march=native build leg
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
skip_sanitizers=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --skip-sanitizers) skip_sanitizers=1; shift ;;
        --build-dir) build_dir="$2"; shift 2 ;;
        --build-dir=*) build_dir="${1#--build-dir=}"; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

echo "== build =="
cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)"

echo "== analyze: dora-analyze =="
# Zero-findings gate over both rule families, line and cross-TU
# structural (DESIGN.md §5j). It needs only the build, so it always
# runs. Suppress intentional exceptions inline
# (// NOLINT(dora-rule-id) or // dora:<rule-annotation>(<reason>)) or
# bless layout bumps with `dora-analyze --regen-manifest`, never here.
# The --json artifact is kept for build-log consumers.
"${build_dir}/tools/analyze/dora-analyze" --repo "${repo_root}" \
    --json "${build_dir}/analyze-findings.json"

if [[ "${DORA_SKIP_LINT:-0}" -eq 1 ]]; then
    echo "== lint == (skipped: DORA_SKIP_LINT=1)"
else
    echo "== lint: clang-tidy =="
    if command -v clang-tidy >/dev/null 2>&1; then
        # Library + tool sources only; tests/benches get coverage via
        # the dora-analyze walk and the compiler's -Werror.
        (cd "${repo_root}" &&
            find src tools -name '*.cc' -print0 |
            xargs -0 -P "$(nproc)" -n 8 \
                clang-tidy -p "${build_dir}" --quiet \
                --warnings-as-errors='*')
    else
        echo "NOTICE: clang-tidy not installed; skipping the" \
             ".clang-tidy check set. Install clang-tidy to run the" \
             "full lint stage."
    fi

    echo "== lint: clang thread-safety =="
    clangxx="$(command -v clang++ || true)"
    if [[ -n "${clangxx}" ]]; then
        # Dedicated clang build tree with -Wthread-safety; -Werror is
        # already global, so any capability violation fails the build.
        ts_dir="${repo_root}/build-threadsafety"
        cmake -B "${ts_dir}" -S "${repo_root}" \
            -DCMAKE_CXX_COMPILER="${clangxx}" \
            -DDORA_THREAD_SAFETY=ON >/dev/null
        cmake --build "${ts_dir}" -j "$(nproc)"
    else
        echo "**********************************************************"
        echo "NOTICE: clang++ not installed — the thread-safety"
        echo "annotation leg of the lint stage CANNOT run. GCC compiles"
        echo "GUARDED_BY/REQUIRES/EXCLUDES to no-ops, so nothing is"
        echo "being checked. Install clang to restore this gate."
        echo "**********************************************************"
    fi
fi

echo "== tests (unit, identity, analyzer, example smoke runs) =="
(cd "${build_dir}" && ctest --output-on-failure)

echo "== crash: process-tier resilience =="
# Named gate over the crash-resilience ladder of the fleet's process
# tier (DESIGN.md §5f): wire protocol corruption handling, journal
# torn-tail truncation, fleet worker/supervisor SIGKILL + retry +
# journal resume (byte-identical to workers=0), the typed process arm
# on harness cells (worker counts, supervisor SIGKILL + resume), the
# in-process recompute of a quarantined unit, stale bundle-cache lock
# recovery, and the truncated-trace flush of a signalled bench. The
# same suites also run under ASan/UBSan (full sweep below) and the
# supervisor and kill suites under TSan (default TSan scope in
# run_sanitized_tests.sh).
(cd "${build_dir}" && ctest --output-on-failure \
    -R 'ProcWire|ProcJournalTest|ProcSupervisorTest|KillResume|CellExecutor\.QuarantinedUnitIsRecomputedBitIdentical|BundleCacheLockTest|ObsGuardSignal')

echo "== fleet: campaign determinism + journal resume =="
# Rollout under model-free governors (no trained bundle needed):
# byte-identity across the (jobs, workers) tier matrix,
# mid-campaign SIGKILL + journal resume, cohort-count
# conservation, and the bench's own peak-RSS ceiling. fleet_rollout
# exits non-zero on any violation; the short load wall keeps the
# stage to minutes (a censored page is still a deterministic
# measurement).
"${build_dir}/bench/fleet_rollout" --fleet-devices 120 \
    --fleet-governors interactive,ondemand --fleet-max-load 1.0

if [[ "${DORA_CI_SKIP_NATIVE:-0}" -eq 1 ]]; then
    echo "== native codegen leg == (skipped: DORA_CI_SKIP_NATIVE=1)"
else
    echo "== native codegen leg (-DDORA_NATIVE=ON) =="
    # The main build above is the portable scalar leg; this dedicated
    # tree proves the host-tuned build compiles clean under -Werror
    # and still honors the bit-identity contracts inside the same
    # binary: BatchedWalk compares the walk kernel with the reference
    # walk, ParallelDeterminism jobs 1 and 4 with the plain
    # ExperimentRunner loop, and CellExecutor ridden cells with lone
    # runs. WorkCounts checks the host-tuned build against the same
    # fixed work counts as the scalar one.
    native_dir="${repo_root}/build-native"
    cmake -B "${native_dir}" -S "${repo_root}" -DDORA_NATIVE=ON \
        >/dev/null
    cmake --build "${native_dir}" -j "$(nproc)"
    (cd "${native_dir}" && ctest --output-on-failure \
        -R 'BatchedWalk|ParallelDeterminism|CellExecutor|WorkCounts')
fi

if [[ "${skip_sanitizers}" -eq 0 ]]; then
    echo "== sanitizers: address,undefined =="
    "${repo_root}/scripts/run_sanitized_tests.sh"
    echo "== sanitizers: thread =="
    "${repo_root}/scripts/run_sanitized_tests.sh" --sanitize=thread
fi

echo "== adaptive accuracy gate =="
# Exact-vs-adaptive contract: governor rankings preserved, per-cell
# load-time/PPW deltas <= 1 %, deadline/censoring verdicts identical.
# The bench exits non-zero on any violation.
"${build_dir}/bench/ext_adaptive_accuracy"

echo "ci: all gates passed"
