#!/usr/bin/env bash
# Single-entry CI pipeline: configure + build, run the dora-analyze
# zero-findings gate and the lint stage (clang-tidy, clang
# thread-safety build), run the full test suite, sweep the sanitizer
# builds, gate the adaptive fast path's accuracy against exact-ticks
# mode, and gate the simulation hot path against the recorded
# BENCH_parallel.json baseline so tick-rate regressions (e.g. from
# observability instrumentation) fail loudly.
#
# Usage: scripts/ci.sh [--skip-sanitizers] [--build-dir DIR]
#
# Environment:
#   DORA_SKIP_LINT=1         skip the lint stage (clang-tidy and the
#                            clang thread-safety build, the legs that
#                            need an optional toolchain)
#   DORA_CI_HOTPATH_TOL_PCT  allowed ticks/sec regression vs the
#                            baseline, percent (default 5; wall-clock
#                            measurements on shared hosts are noisy,
#                            so widen it there rather than deleting
#                            the gate); applies to the adaptive AND
#                            the exact-ticks floor
#   DORA_CI_LANE_SPEEDUP_MIN minimum exact-mode lanes=8 / lanes=1
#                            aggregate tick-rate ratio (default 0.75 —
#                            since the walk kernel got faster per lane
#                            the ratio measures 0.76-1.77, median ~1.07,
#                            over 23 runs on a 4-thread shared guest, so
#                            the floor only catches a fused path that
#                            clearly slows the batch down)
#   DORA_CI_FLEET_TOL_PCT    allowed fleet devices/s regression vs
#                            the BENCH_parallel.json baseline, percent
#                            (default 10; the fleet stage is a single
#                            short campaign, noisier than the hotpath
#                            rate)
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
# Named gate over the crash-resilience ladder (DESIGN.md §5f): wire
# protocol corruption handling, journal torn-tail truncation,
# worker/supervisor SIGKILL + retry + journal resume (byte-identical
# to --workers=0), stale bundle-cache lock recovery, and the
# truncated-trace flush of a signalled bench. The same suites also
# run under ASan/UBSan (full sweep below) and the supervisor suites
# under TSan (default TSan scope in run_sanitized_tests.sh).
(cd "${build_dir}" && ctest --output-on-failure \
    -R 'ProcWire|ProcJournalTest|ProcSupervisorTest|KillResume|BundleCacheLockTest|ObsGuardSignal')

echo "== fleet: campaign determinism + checkpoint resume =="
# Rollout under model-free governors (no trained bundle needed):
# byte-identity across the (jobs, workers, lanes) tier matrix,
# mid-campaign SIGKILL + aggregate-checkpoint resume, cohort-count
# conservation, and the bench's own peak-RSS ceiling. fleet_rollout
# exits non-zero on any violation; the short load wall keeps the
# stage to minutes (a censored page is still a deterministic
# measurement). Device count matches the run_benches.sh recording so
# the serial reference pass's devices/s is comparable to the
# baseline, which gates throughput below.
fleet_log="$(mktemp)"
"${build_dir}/bench/fleet_rollout" --fleet-devices 120 \
    --fleet-governors interactive,ondemand --fleet-max-load 1.0 \
    | tee "${fleet_log}"

echo "== fleet throughput gate =="
# Same mechanism as the hot-path floor: the serial reference pass's
# devices/s must stay within DORA_CI_FLEET_TOL_PCT of the recorded
# BENCH_parallel.json baseline.
fleet_baseline="$(sed -n \
    '/"fleet_rollout"/,/}/s/.*"devices_per_sec": *\([0-9.]*\).*/\1/p' \
    "${repo_root}/BENCH_parallel.json" 2>/dev/null || true)"
if [[ -z "${fleet_baseline}" ]]; then
    echo "warning: no fleet_rollout baseline in BENCH_parallel.json;" \
         "skipping the fleet floor (run scripts/run_benches.sh)"
else
    fleet_tol_pct="${DORA_CI_FLEET_TOL_PCT:-10}"
    fleet_rate="$(awk '$1=="FLEET" && $2=="jobs=1" && $3=="workers=0" && \
        $4=="lanes=1" {sub("devices_per_sec=","",$6); print $6}' \
        "${fleet_log}")"
    fleet_floor="$(awk -v b="${fleet_baseline}" -v t="${fleet_tol_pct}" \
        'BEGIN{printf "%.2f", b * (100 - t) / 100}')"
    echo "fleet devices/s: measured ${fleet_rate}," \
         "baseline ${fleet_baseline}, floor ${fleet_floor}" \
         "(tolerance ${fleet_tol_pct}%)"
    fleet_ok="$(awk -v r="${fleet_rate}" -v f="${fleet_floor}" \
        'BEGIN{print (r >= f) ? 1 : 0}')"
    if [[ "${fleet_ok}" -ne 1 ]]; then
        echo "error: fleet devices/s regressed beyond" \
             "${fleet_tol_pct}%" >&2
        exit 1
    fi
fi
rm -f "${fleet_log}"

if [[ "${DORA_CI_SKIP_NATIVE:-0}" -eq 1 ]]; then
    echo "== native codegen leg == (skipped: DORA_CI_SKIP_NATIVE=1)"
else
    echo "== native codegen leg (-DDORA_NATIVE=ON) =="
    # The main build above is the portable scalar leg; this dedicated
    # tree proves the host-tuned build compiles clean under -Werror
    # and still honors the lane-tier bit-identity contract (the
    # LaneBatch/BatchedWalk suites compare lanes=N against the serial
    # path inside the same binary).
    native_dir="${repo_root}/build-native"
    cmake -B "${native_dir}" -S "${repo_root}" -DDORA_NATIVE=ON \
        >/dev/null
    cmake --build "${native_dir}" -j "$(nproc)"
    (cd "${native_dir}" && ctest --output-on-failure \
        -R 'LaneBatch|BatchedWalk')
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

echo "== hot-path overhead gate =="
baseline_json="${repo_root}/BENCH_parallel.json"
baseline="$(sed -n '/"ovh_hotpath"/,/}/s/.*"ticks_per_sec": *\([0-9]*\).*/\1/p' \
    "${baseline_json}")"
if [[ -z "${baseline}" ]]; then
    echo "warning: no ovh_hotpath baseline in ${baseline_json};" \
         "skipping the gate (run scripts/run_benches.sh to record one)"
    exit 0
fi
# --benchmark_filter that matches nothing skips the google-benchmark
# timings; printTickRate (the gated number) always runs. Tracing stays
# disabled — this measures the instrumented-but-off hot path.
tol_pct="${DORA_CI_HOTPATH_TOL_PCT:-5}"
hotpath_log="$(mktemp)"
"${build_dir}/bench/ovh_hotpath" '--benchmark_filter=^$' \
    > "${hotpath_log}"
ticks="$(awk '/^HOTPATH_TICKS_PER_SEC/{print $2}' "${hotpath_log}")"
floor="$(awk -v b="${baseline}" -v t="${tol_pct}" \
    'BEGIN{printf "%d", b * (100 - t) / 100}')"
echo "ticks/sec (adaptive): measured ${ticks}, baseline ${baseline}," \
     "floor ${floor} (tolerance ${tol_pct}%)"
if [[ "${ticks}" -lt "${floor}" ]]; then
    echo "error: hot-path tick rate regressed beyond ${tol_pct}%" >&2
    exit 1
fi

# Exact-ticks floor: the lock-step path is the offline-opt/training
# hot loop and regresses independently of the adaptive fast path
# (e.g. from batched-walk changes), so it gets its own gate.
baseline_exact="$(sed -n \
    '/"ovh_hotpath"/,/}/s/.*"ticks_per_sec_exact": *\([0-9]*\).*/\1/p' \
    "${baseline_json}")"
if [[ -z "${baseline_exact}" ]]; then
    echo "warning: no exact-ticks baseline in ${baseline_json};" \
         "skipping the exact floor (run scripts/run_benches.sh)"
else
    "${build_dir}/bench/ovh_hotpath" --exact-ticks \
        '--benchmark_filter=^$' > "${hotpath_log}"
    ticks_exact="$(awk '/^HOTPATH_TICKS_PER_SEC/{print $2}' \
        "${hotpath_log}")"
    floor_exact="$(awk -v b="${baseline_exact}" -v t="${tol_pct}" \
        'BEGIN{printf "%d", b * (100 - t) / 100}')"
    echo "ticks/sec (exact): measured ${ticks_exact}," \
         "baseline ${baseline_exact}, floor ${floor_exact}" \
         "(tolerance ${tol_pct}%)"
    if [[ "${ticks_exact}" -lt "${floor_exact}" ]]; then
        echo "error: exact-ticks rate regressed beyond ${tol_pct}%" >&2
        exit 1
    fi

    # Lane-tier speedup: a ratio gate (lanes=8 vs lanes=1, exact
    # fused path, same run) is robust to host-wide slowdown in a way
    # absolute floors are not.
    lanes1="$(awk '$1=="HOTPATH_LANE_TICKS_PER_SEC" && $2=="lanes=1" \
        {print $3}' "${hotpath_log}")"
    lanes8="$(awk '$1=="HOTPATH_LANE_TICKS_PER_SEC" && $2=="lanes=8" \
        {print $3}' "${hotpath_log}")"
    speedup_min="${DORA_CI_LANE_SPEEDUP_MIN:-0.75}"
    speedup="$(awk -v a="${lanes1}" -v b="${lanes8}" \
        'BEGIN{printf "%.2f", b / a}')"
    echo "lane speedup (exact, lanes=8 vs lanes=1): ${speedup}" \
         "(floor ${speedup_min})"
    ok="$(awk -v s="${speedup}" -v m="${speedup_min}" \
        'BEGIN{print (s >= m) ? 1 : 0}')"
    if [[ "${ok}" -ne 1 ]]; then
        echo "error: lane-batched speedup below ${speedup_min}x" >&2
        exit 1
    fi
fi
rm -f "${hotpath_log}"
echo "ci: all gates passed"
