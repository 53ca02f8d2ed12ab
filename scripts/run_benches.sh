#!/usr/bin/env bash
# Run the perf-tracked benches and record a machine-readable snapshot in
# BENCH_parallel.json so successive PRs have a performance trajectory:
#
#   - bench/ext_parallel_scaling: wall-clock of the fig07 slice at
#     jobs=1 and jobs=N plus the byte-identity self-check
#   - bench/ovh_hotpath: sustained simulator ticks/sec on the default
#     adaptive path AND under --exact-ticks (hot-path guards)
#   - bench/ovh_memsample: ns per sampled cache access, per stream draw,
#     and per line of the batched kernel's generation (nextRuns)
#   - bench/fleet_rollout: fleet campaign devices/s (serial reference
#     pass) and peak RSS, plus its tier byte-identity +
#     checkpoint-resume + bounded-memory self-checks
#   - fig01/fig03: serial wall-clock of the two cheapest paper figures
#
# Usage: scripts/run_benches.sh [--jobs N] [--build-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
jobs="$(nproc)"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --jobs) jobs="$2"; shift 2 ;;
        --jobs=*) jobs="${1#--jobs=}"; shift ;;
        --build-dir) build_dir="$2"; shift 2 ;;
        --build-dir=*) build_dir="${1#--build-dir=}"; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target \
    ext_parallel_scaling ovh_hotpath ovh_memsample fleet_rollout \
    fig01_interference_loadtime fig03_fopt_tradeoff >/dev/null

bench="${build_dir}/bench"
out="${repo_root}/BENCH_parallel.json"

echo "== ext_parallel_scaling (jobs=${jobs}) =="
scaling_log="$(mktemp)"
"${bench}/ext_parallel_scaling" --jobs "${jobs}" | tee "${scaling_log}"
# First/last match: on a 1-thread host both runs print "jobs=1".
wall_serial="$(awk '/^SCALING jobs=1 /{sub("wall=","",$3); print $3; exit}' \
    "${scaling_log}")"
wall_parallel="$(awk -v j="${jobs}" \
    '$1=="SCALING" && $2=="jobs="j {sub("wall=","",$3); v=$3} END{print v}' \
    "${scaling_log}")"
speedup="$(awk '/^SCALING speedup=/{sub("speedup=","",$2); print $2}' \
    "${scaling_log}")"
identical="$(awk '/^SCALING speedup=/{sub("identical=","",$3); print $3}' \
    "${scaling_log}")"
[[ "${identical}" == "1" ]] && identical=true || identical=false
# Process-tier row: the same slice sharded over worker subprocesses
# (checkpoint/resume path); identical above also covers its bytes.
workers_n="$(awk '/^SCALING workers=/{sub("workers=","",$2); print $2}' \
    "${scaling_log}")"
wall_workers="$(awk '/^SCALING workers=/{sub("wall=","",$3); print $3}' \
    "${scaling_log}")"
rm -f "${scaling_log}"

echo "== ovh_hotpath (adaptive) =="
hotpath_log="$(mktemp)"
"${bench}/ovh_hotpath" --benchmark_min_time=0.1s | tee "${hotpath_log}"
ticks="$(awk '/^HOTPATH_TICKS_PER_SEC /{print $2}' "${hotpath_log}")"

echo "== ovh_hotpath (--exact-ticks) =="
"${bench}/ovh_hotpath" --exact-ticks --benchmark_filter=NONE \
    | tee "${hotpath_log}"
ticks_exact="$(awk '/^HOTPATH_TICKS_PER_SEC /{print $2}' \
    "${hotpath_log}")"
rm -f "${hotpath_log}"

echo "== ovh_memsample =="
memsample_log="$(mktemp)"
"${bench}/ovh_memsample" --benchmark_min_time=0.1s \
    | tee "${memsample_log}"
walk_ns="$(awk '/^MEMSAMPLE_WALK_NS_PER_SAMPLE /{print $2}' \
    "${memsample_log}")"
next_ns="$(awk '/^MEMSAMPLE_STREAM_NEXT_NS /{print $2}' \
    "${memsample_log}")"
nextruns_ns="$(awk '/^MEMSAMPLE_NEXTRUNS_NS /{print $2}' \
    "${memsample_log}")"
rm -f "${memsample_log}"

time_bench() {
    local start end
    start="$(date +%s.%N)"
    "${bench}/$1" >/dev/null
    end="$(date +%s.%N)"
    awk -v a="${start}" -v b="${end}" 'BEGIN{printf "%.3f", b - a}'
}

# Fleet campaign throughput: the serial reference pass's devices/s is
# the tracked number; the bench also self-checks tier byte-identity,
# mid-campaign SIGKILL + checkpoint resume, cohort conservation, and
# its own peak-RSS ceiling (exits non-zero on any violation).
# Model-free governors + a short load wall keep the recording to
# minutes.
fleet_devices=120
echo "== fleet_rollout (${fleet_devices} devices) =="
fleet_log="$(mktemp)"
"${bench}/fleet_rollout" --fleet-devices "${fleet_devices}" \
    --fleet-governors interactive,ondemand --fleet-max-load 1.0 \
    | tee "${fleet_log}"
fleet_rate="$(awk '$1=="FLEET" && $2=="jobs=1" && $3=="workers=0" {
    for (i = 4; i <= NF; ++i)
        if (sub("^devices_per_sec=", "", $i)) print $i }' \
    "${fleet_log}")"
if [[ -z "${fleet_rate}" ]]; then
    echo "error: no serial devices_per_sec on a 'FLEET jobs=1" \
         "workers=0' line of fleet_rollout" >&2
    exit 1
fi
fleet_identical="$(awk '/^FLEET identical=/{sub("identical=","",$2); \
    print $2}' "${fleet_log}")"
fleet_resume="$(awk '/^FLEET identical=/{sub("resume_identical=","",$3); \
    print $3}' "${fleet_log}")"
fleet_rss_mb="$(awk '/^FLEET identical=/{sub("peak_rss_mb=","",$5); \
    print $5}' "${fleet_log}")"
[[ "${fleet_identical}" == "1" ]] && fleet_identical=true \
    || fleet_identical=false
[[ "${fleet_resume}" == "1" ]] && fleet_resume=true \
    || fleet_resume=false
rm -f "${fleet_log}"

echo "== fig01/fig03 wall-clock =="
fig01_sec="$(time_bench fig01_interference_loadtime)"
echo "fig01_interference_loadtime ${fig01_sec}s"
fig03_sec="$(time_bench fig03_fopt_tradeoff)"
echo "fig03_fopt_tradeoff ${fig03_sec}s"

cat > "${out}" <<EOF
{
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host_hardware_threads": $(nproc),
  "jobs": ${jobs},
  "ext_parallel_scaling": {
    "wall_jobs1_sec": ${wall_serial},
    "wall_jobsN_sec": ${wall_parallel},
    "workers": ${workers_n},
    "wall_workersN_sec": ${wall_workers},
    "speedup": ${speedup},
    "identical": ${identical}
  },
  "ovh_hotpath": {
    "ticks_per_sec": ${ticks},
    "ticks_per_sec_exact": ${ticks_exact}
  },
  "ovh_memsample": {
    "walk_ns_per_sample": ${walk_ns},
    "stream_next_ns": ${next_ns},
    "nextruns_ns_per_line": ${nextruns_ns}
  },
  "fleet_rollout": {
    "devices": ${fleet_devices},
    "devices_per_sec": ${fleet_rate},
    "peak_rss_mb": ${fleet_rss_mb},
    "identical": ${fleet_identical},
    "resume_identical": ${fleet_resume}
  },
  "figures_serial": {
    "fig01_interference_loadtime_sec": ${fig01_sec},
    "fig03_fopt_tradeoff_sec": ${fig03_sec}
  }
}
EOF
echo "wrote ${out}"
