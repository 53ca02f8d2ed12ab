#!/usr/bin/env python3
"""Compare two folded benchmark results, one row per (workload, metric).

  python3 benchmark/compare.py PARENT.json CHANGE.json

PARENT and CHANGE are benchmark/out/results.json files from the parent
commit and the change, made with the same benchmark code and settings.
Each end-to-end metric gets a verdict, with the bound from
BENCHMARK.json:

  improved    over at least ten run pairs, the change wins at least
              nine tenths (ties count for neither) and the medians
              differ, in the better direction, by more than the
              parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more
              than the bound;
  unresolved  the parent's quartile spread is wider than the bound, so
              "no worse" cannot be told from noise (unless every change
              run is better than every parent run);
  no worse    otherwise.

Metrics without a bound (the per-layer ledger) are listed with their
change and no verdict. A workload where the change fails more cells
than the parent is reported as regressed. Exit status 1 when any row
regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10  # fewer runs cannot support a claimed gain


def fold(values):
    """median, q1, q3, min, max, n, and the values in run order.

    Quartiles are statistics.quantiles(values, n=4), the same rule the
    spread checks use. bench.py writes every fold in results.json with
    this function.
    """
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "values": list(values)}


def verdict(parent, change, better, bound):
    """Verdict for one metric; folds carry their values in run order."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = parent["median"], change["median"]
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    spread = (parent["q3"] - parent["q1"]) / abs(p_med) if p_med else 0.0

    pairs = list(zip(parent["values"], change["values"]))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0
                     for p in parent["values"] for c in change["values"])
    gain = sign * (c_med - p_med) > (parent["q3"] - parent["q1"])
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain:
        return "improved"
    if worse_by > bound:
        return "regressed"
    if spread > bound and not all_better:
        return "unresolved"
    return "no worse"


def compare(parent, change, spec):
    rows = []
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    for w in sorted(set(parent["workloads"]) & set(change["workloads"])):
        p_row, c_row = parent["workloads"][w], change["workloads"][w]
        if c_row.get("failed", 0) > p_row.get("failed", 0):
            rows.append((w, "failed", p_row["failed"], c_row["failed"],
                         None, "regressed"))
        for name in sorted(set(p_row) & set(c_row)):
            p, c = p_row[name], c_row[name]
            if not isinstance(p, dict):
                continue
            delta = (c["median"] - p["median"]) / abs(p["median"]) \
                if p["median"] else None
            if name in bounded:
                v = verdict(p, c, bounded[name]["better"],
                            bounded[name]["bound"])
            else:
                v = ""
            rows.append((w, name, p["median"], c["median"], delta, v))
    return rows


def self_test():
    """Verdicts on hand-made samples; True when all are as expected."""
    f = fold
    base = f([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    cases = [
        (f([120, 121, 119, 120, 122, 118, 120, 121, 119, 120]), "higher",
         "improved"),
        (f([80, 81, 79, 80, 82, 78, 80, 81, 79, 80]), "higher",
         "regressed"),
        (f([99, 100, 101, 100, 98, 102, 100, 99, 101, 100]), "higher",
         "no worse"),
        (f([80, 81, 79, 80, 82, 78, 80, 81, 79, 80]), "lower", "improved"),
    ]
    ok = all(verdict(base, c, better, 0.1) == want
             for c, better, want in cases)
    wide = f([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
    few = verdict(f([100, 101, 99]), f([120, 121, 119]), "higher", 0.1)
    return ok and few == "no worse" and \
        verdict(wide, f([100] * 10), "higher", 0.1) == "unresolved"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    with open(sys.argv[1]) as a, open(sys.argv[2]) as b:
        parent, change = json.load(a), json.load(b)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(parent, change, spec)
    print("%-12s %-30s %14s %14s %9s  %s" % (
        "workload", "metric", "parent", "change", "delta", "verdict"))
    for w, name, p, c, delta, v in rows:
        d = "%+8.2f%%" % (100 * delta) if delta is not None else "%9s" % "-"
        print("%-12s %-30s %14.6g %14.6g %s  %s" % (w, name, p, c, d, v))
    return 1 if any(r[5] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
