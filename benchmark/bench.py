#!/usr/bin/env python3
"""Drive dora_benchmark, check its digests, and fold its BENCH lines.

Invoked by run.sh with the built binary. Two interfaces:

  one run     --workload W --seed S --seconds T --trace 0|1
              Prints every metric with its unit, then, as the last
              stdout line, {"correct", "attempted", "failed", "metrics"}
              with the BENCHMARK.json end_to_end metrics (trace 0) or
              per_layer metrics (trace 1).

  folded      [--workloads a,b] [--seed S] [--repeats N] [--seconds T]
              [--traced]
              Runs each workload N times and writes the median, q1, q3,
              min, max and n of every metric, plus host facts, to
              benchmark/out/results.json (results-traced.json with
              --traced).

  --bless     re-records golden.json: per-round digests of seeds 1, 2.
  --self-test the binary's self-test plus this script's fold and
              compare.py's verdict checks.

Any digest mismatch, failed cell or failed self-check exits non-zero.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import compare  # noqa: E402
from compare import fold  # noqa: E402

WORKLOADS = ["paper-grid", "fleet-dora", "exact-sweep"]
# Units of the ledger-only lines (not in BENCHMARK.json), by name prefix.
EXTRA_UNITS = {"governor.decide_ns.": "ns",
               "fleet.aggregate_us_per_cell": "us", "dora.train_s": "s",
               "ledger.fit_residual_share": "frac",
               "ledger.timed_walk_ns_per_l1_probe": "ns"}
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")
DEFAULT_SECONDS = 15
BLESS_SEEDS = [1, 2]
# Golden digests cover runs of up to twice the default length.
BLESS_SECONDS = 2 * DEFAULT_SECONDS


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"digests": {}}


def run_binary(binary, workload, seed, seconds, traced):
    """One dora_benchmark invocation; returns its BENCH object or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", OUT]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    bench = None
    for line in proc.stdout.splitlines():
        if line.startswith("BENCH "):
            bench = json.loads(line[len("BENCH "):])
    if bench is not None:
        bench["exit_code"] = proc.returncode
    return bench


def golden_mismatches(bench, golden):
    """Rounds whose digest differs from golden.json (seeds 1 and 2)."""
    expected = golden["digests"].get(bench["workload"], {}).get(
        str(bench["seed"]), [])
    return [i for i, (got, want) in
            enumerate(zip(bench["round_digests"], expected)) if got != want]


def problems(bench, golden):
    """Why a run is not correct; empty when it is."""
    if bench is None:
        return ["no BENCH line"]
    found = []
    if bench["exit_code"] != 0:
        found.append("exit code %d" % bench["exit_code"])
    if bench["failed"]:
        found.append("%d failed cells" % bench["failed"])
    if bench["mode"] == "traced" and bench["digest_mismatches"]:
        found.append("%d traced rounds differ" % bench["digest_mismatches"])
    if bench["mode"] == "traced" and bench["ledger_problem"]:
        found.append("ledger attribution: %s" % bench["ledger_problem"])
    if bench["mode"] == "untraced" and not bench["verify_ok"]:
        found.append("replayed round %d differs" % bench["verified_round"])
    if bench["mode"] == "untraced" and not bench["setup_identical"]:
        found.append("set-ups trained different bundles")
    mismatched = golden_mismatches(bench, golden)
    if mismatched:
        found.append("golden digest differs in rounds %s" % mismatched)
    return found


def metric_values(bench):
    return bench["ledger"] if bench["mode"] == "traced" else bench["metrics"]


def print_metrics(bench, declared):
    values = metric_values(bench)
    for m in declared:
        print("%-12s %-30s %16.6g %s" % (
            bench["workload"], m["name"], values[m["name"]], m["unit"]))
    for name, value in sorted(bench.get("ledger_extra", {}).items()):
        print("%-12s %-30s %16.6g %s (ledger only)" % (
            bench["workload"], name, value, extra_unit(name)))
    if "paper_err_pp" in bench:
        print("%-12s %-30s %16.6g pp (DORA gain vs the paper's +16%%)" % (
            bench["workload"], "paper_err_pp", bench["paper_err_pp"]))


def extra_unit(name):
    return next(u for p, u in EXTRA_UNITS.items() if name.startswith(p))


def one_run(args, spec, golden):
    traced = args.trace == 1
    bench = run_binary(args.binary, args.workload, args.seed, args.seconds,
                       traced)
    declared = spec["per_layer" if traced else "end_to_end"]
    found = problems(bench, golden)
    if bench is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print_metrics(bench, declared)
    for problem in found:
        print("INCORRECT: %s" % problem)
    values = metric_values(bench)
    result = {
        "correct": not found,
        "attempted": int(bench["cells"]),
        "failed": int(bench["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 1 if found else 0


def host_facts(benches):
    facts = {"nproc": os.cpu_count(), "machine": platform.machine(),
             "jobs": sorted({b["jobs"] for b in benches})}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(HERE, "build", "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        facts["compiler"] = subprocess.run(
            [compiler, "--version"], stdout=subprocess.PIPE,
            text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        facts["compiler"] = compiler
    facts["flags"] = cache.get("CMAKE_CXX_FLAGS_RELWITHDEBINFO", "") + \
        " -Wall -Wextra -Werror -std=c++20"
    try:
        facts["git_describe"] = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True).stdout.strip() or "unknown"
    except OSError:
        facts["git_describe"] = "unknown"
    return facts


def folded(args, spec, golden):
    workloads = args.workloads.split(",")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    benches, ok = [], True
    for w in workloads:
        for _ in range(args.repeats):
            bench = run_binary(args.binary, w, args.seed, args.seconds,
                               args.traced)
            for problem in problems(bench, golden):
                print("%s seed %d: INCORRECT: %s" % (w, args.seed, problem))
                ok = False
            if bench is not None:
                benches.append(bench)
    results = {"host": host_facts(benches), "seed": args.seed,
               "seconds": args.seconds, "repeats": args.repeats,
               "mode": "traced" if args.traced else "untraced",
               "workloads": {}, "runs": benches}
    declared = spec["per_layer" if args.traced else "end_to_end"]
    for w in workloads:
        runs = [b for b in benches if b["workload"] == w]
        if not runs:
            continue
        row = {}
        for m in declared:
            row[m["name"]] = fold([metric_values(b)[m["name"]]
                                   for b in runs])
            row[m["name"]]["unit"] = units[m["name"]]
        for name in sorted(runs[0].get("ledger_extra", {})):
            row[name] = fold([b["ledger_extra"][name] for b in runs])
            row[name]["unit"] = extra_unit(name)
        if "paper_err_pp" in runs[0]:
            row["paper_err_pp"] = fold([b["paper_err_pp"] for b in runs])
            row["paper_err_pp"]["unit"] = "pp"
        row["failed"] = sum(b["failed"] for b in runs)
        row["attempted"] = sum(b["cells"] for b in runs)
        results["workloads"][w] = row
        for name, f in row.items():
            if isinstance(f, dict):
                print("%-12s %-30s median %14.6g  q1 %14.6g  q3 %14.6g  "
                      "n %d %s" % (w, name, f["median"], f["q1"], f["q3"],
                                   f["n"], f.get("unit", "")))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, "results-traced.json" if args.traced else "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print("wrote %s" % path)
    return 0 if ok else 1


def bless(args):
    golden = load_golden()
    golden["seconds"] = BLESS_SECONDS
    for w in args.workloads.split(","):
        for seed in BLESS_SEEDS:
            bench = run_binary(args.binary, w, seed, BLESS_SECONDS, False)
            if bench is None or bench["exit_code"] != 0:
                print("%s seed %d: run failed; golden.json unchanged" %
                      (w, seed))
                return 1
            golden["digests"].setdefault(w, {})[str(seed)] = \
                bench["round_digests"]
            print("%s seed %d: %d rounds blessed" % (
                w, seed, len(bench["round_digests"])))
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def self_test(args):
    ok = subprocess.run([args.binary, "--self-test"]).returncode == 0
    got = fold([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
    want = {"median": 3.5, "q1": 1.75, "q3": 5.25, "min": 1, "max": 9,
            "n": 10}
    fold_ok = all(abs(got[k] - v) < 1e-12 for k, v in want.items())
    print("SELFTEST %-34s %s" % ("median/quartile fold",
                                 "PASS" if fold_ok else "FAIL"))
    verdict_ok = compare.self_test()
    print("SELFTEST %-34s %s" % ("compare.py verdicts",
                                 "PASS" if verdict_ok else "FAIL"))
    return 0 if ok and fold_ok and verdict_ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--binary", required=True)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--bless", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    for w in args.workloads.split(","):
        if w not in WORKLOADS:
            p.error("unknown workload %s" % w)

    if args.self_test:
        return self_test(args)
    if args.bless:
        return bless(args)
    spec, golden = load_spec(), load_golden()
    if args.workload:
        if args.trace is None:
            args.trace = 1 if args.traced else 0
        return one_run(args, spec, golden)
    return folded(args, spec, golden)


if __name__ == "__main__":
    sys.exit(main())
