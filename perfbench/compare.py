#!/usr/bin/env python3
"""Summarizes benchmark result files and compares two sets of them.

    python3 perfbench/compare.py RUNS_A            # spread of one set
    python3 perfbench/compare.py RUNS_A RUNS_B     # B against A

RUNS_A and RUNS_B are directories of untraced result files written by
run.py (<workload>-seed<N>-trace0.json). For every (end-to-end metric,
workload) pair the helper prints one row with the median and quartiles of
each set (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median.

One set: the row says "steady" when the spread is below a third of the
metric's bound in BENCHMARK.json, "within bound" when it is below the
bound, and "too noisy" otherwise.

Two sets: the verdict is
  improved    B's median is better by more than A's quartile distance and
              B wins at least 9 of 10 runs paired by seed (ties count for
              neither), or every B run beats every A run;
  worse       B's median is worse than A's by more than the bound;
  unresolved  a set's spread is wider than the bound (and B does not beat
              every A run);
  no worse    otherwise.
Exit status is 1 when a pair is worse (two sets) or too noisy (one set).
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """Returns {workload: {seed: {metric: value}}} from untraced results."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], {})[r["host"]["seed"]] = {
            name: m["value"] for name, m in r["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(a, b, lower_is_better):
    """True when value b is better than value a."""
    return b < a if lower_is_better else b > a


def verdict(a, b, metric):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    if all(better(x, y, lower) for x in a for y in b):
        return "improved"
    change = (mb - ma) / ma if ma else 0.0
    worse_by = change if lower else -change
    if worse_by > bound:
        return "worse"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    wins = sum(better(x, y, lower) for x, y in zip(a, b))
    if (better(ma, mb, lower) and abs(mb - ma) > qa3 - qa1 and
            wins >= 0.9 * min(len(a), len(b))):
        return "improved"
    return "no worse"


def fmt(v):
    return f"{v:.4g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_runs(d) for d in argv[1:]]
    status = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for w in spec["workloads"]:
            workload = w["name"]
            cols = []
            values = []
            for runs in sets:
                by_seed = runs.get(workload, {})
                seeds = sorted(s for s in by_seed if name in by_seed[s])
                vals = [by_seed[s][name] for s in seeds]
                values.append(vals)
                if not vals:
                    cols.append("no runs")
                    continue
                q1, med, q3 = quartiles(vals)
                cols.append(f"n={len(vals)} median={fmt(med)} "
                            f"q1={fmt(q1)} q3={fmt(q3)} "
                            f"spread={spread(vals):.3f}")
            if any(not v for v in values):
                result = "missing"
                status = 1
            elif len(sets) == 1:
                s = spread(values[0])
                result = ("steady" if s < metric["bound"] / 3 else
                          "within bound" if s <= metric["bound"] else
                          "too noisy")
                if result == "too noisy" and name != "setup_s":
                    status = 1
            else:
                result = verdict(values[0], values[1], metric)
                if result == "worse":
                    status = 1
            print(f"{name:<12} {workload:<9} bound={metric['bound']:<5} "
                  + " | ".join(cols) + f" -> {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
