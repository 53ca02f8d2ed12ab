#!/usr/bin/env bash
# The repository benchmark, as one command. Builds benchmark/build from
# the sources in this checkout, then hands every argument to bench.py:
#
#   benchmark/run.sh [--workloads a,b] [--seed S] [--repeats N]
#                    [--seconds T] [--traced] [--bless] [--self-test]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# The first form folds runs into benchmark/out/results.json; the second
# is one run whose last stdout line is the result object. See
# benchmark/README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f src/CMakeLists.txt ]; then
    echo "run.sh: no src/ next to benchmark/; run it from a full" \
        "checkout of the repository" >&2
    exit 2
fi

build="$here/build"
jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4
{
    if [ ! -f "$build/CMakeCache.txt" ]; then
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    fi
    cmake --build "$build" -j "$jobs"
} >&2

exec python3 "$here/bench.py" --binary "$build/dora_benchmark" "$@"
