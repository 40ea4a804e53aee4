"""Spread of one set of runs, or verdicts between two sets.

Usage, from the repository root::

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A runs file holds the records ``run.py`` appends to
``.perfbench_out/runs.jsonl``.  With one file, each (end-to-end metric,
workload) row shows the median, the quartiles and the spread: the distance
between the quartiles as a share of the median.  With two files, each row
gets one verdict, following the choosing-metrics rules:

* ``better``: at least ten pairs, the new side wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  base runs' quartile distance;
* ``worse``: the new median is worse than the base median by more than the
  metric's bound;
* ``unresolved``: the spread of either side is wider than the bound, unless
  every new run is better than every base run;
* ``unchanged``: otherwise.

Runs pair by seed when both sides ran the same seeds, else in file order.
Traced runs of the same workload and seed, in either file, are compared on
their exact counts: ``identical``, or each count that changed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records, trace):
    """{workload: [(seed, {metric: value})]} for runs in the given mode."""
    out = defaultdict(list)
    for rec in records:
        if rec["trace"] == trace:
            values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            out[rec["workload"]].append((rec["seed"], values))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs(base, new):
    base_seeds = [seed for seed, _ in base]
    new_seeds = [seed for seed, _ in new]
    if sorted(base_seeds) == sorted(new_seeds) and len(set(base_seeds)) == len(base_seeds):
        lookup = dict(new)
        return [(values, lookup[seed]) for seed, values in base]
    return [(b, n) for (_, b), (_, n) in zip(base, new)]


def verdict(metric, base_vals, new_vals, paired):
    """Return (verdict, detail) for one (metric, workload) row."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0

    def improves(new, old):
        return sign * (old - new) > 0

    q1_b, med_b, q3_b = quartiles(base_vals)
    _, med_n, _ = quartiles(new_vals)
    wins = sum(1 for b, n in paired if improves(n[name], b[name]))
    worse_frac = sign * (med_n - med_b) / abs(med_b)
    wide = max(spread(base_vals), spread(new_vals)) > bound
    dominates = all(improves(n, b) for n in new_vals for b in base_vals)
    gain = (len(paired) >= 10 and wins >= 0.9 * len(paired)
            and improves(med_n, med_b) and abs(med_n - med_b) > q3_b - q1_b)
    if gain:
        result = "better"
    elif worse_frac > bound:
        result = "worse"
    elif wide and not dominates:
        result = "unresolved"
    else:
        result = "unchanged"
    detail = (f"base {med_b:.6g} new {med_n:.6g} (gain {-worse_frac:+.1%}), "
              f"wins {wins}/{len(paired)}, spread base {spread(base_vals):.1%} "
              f"new {spread(new_vals):.1%}, bound {bound:.0%}")
    return result, detail


def main(argv):
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sets = [load(path) for path in argv]
    runs = [by_workload(records, 0) for records in sets]
    for workload in sorted(set().union(*runs)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sides = [[v[name] for _, v in r.get(workload, [])] for r in runs]
            if not all(sides):
                continue
            if len(sides) == 1:
                q1, med, q3 = quartiles(sides[0])
                print(f"{workload:20s} {name:14s} median {med:.6g} quartiles "
                      f"[{q1:.6g}, {q3:.6g}] spread {spread(sides[0]):.2%} "
                      f"(bound {metric['bound']:.0%}, n={len(sides[0])})")
            else:
                paired = pairs(runs[0][workload], runs[1][workload])
                result, detail = verdict(metric, sides[0], sides[1], paired)
                print(f"{workload:20s} {name:14s} {result:10s} {detail}")
    # exact counts: every traced run of a (workload, seed) against the first
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    traced = defaultdict(list)
    for records in sets:
        for workload, runs_of in by_workload(records, 1).items():
            for seed, values in runs_of:
                traced[workload, seed].append(values)
    for (workload, seed), found in sorted(traced.items()):
        if len(found) < 2:
            continue
        changed = sorted({f"{c} {found[0][c]} -> {other[c]}" for other in found[1:]
                          for c in counts if other[c] != found[0][c]})
        print(f"{workload:20s} counts seed {seed} ({len(found)} traced runs): "
              + ("identical" if not changed else "; ".join(changed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
