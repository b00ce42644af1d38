#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

Usage:

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds stamped run records as written by
`perfbench/run.py --out FILE` (or `perfbench/sweep.py`). A run that
failed or mis-verified an output (`correct` false or `failed` above 0)
is no sample: it is left out of the figures and counted per side. For
every workload x metric present on both sides it prints each side's
median and quartiles, the share of paired runs the new side won (runs
pair by seed; ties count for neither side), and a verdict against the
bounds in `BENCHMARK.json`:

* improved   - the new side wins at least 9/10 of the pairs and the
               medians differ by more than the base side's interquartile
               range;
* worse      - the new median is worse than the base median by more
               than the metric's bound;
* unresolved - neither, and either side's spread (IQR / median) exceeds
               the bound, so "no change" cannot be claimed;
* same       - within the bound on a spread narrower than it;
* failing    - the new side has more failed runs of the workload than
               the base side, so no gain of it counts.

Per-layer metrics (traced runs) have no bound; they get `improved`,
`worse-layer` (the mirror of improved) or `-`. Exit status is 1 when
any end-to-end metric is `worse` or `failing`.

Runs pair by seed, so host drift cancels only when both sides of a seed
ran close together: take the two sets with
`perfbench/sweep.py --base-root`, which alternates them seed by seed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def run_ok(run):
    """Whether a run verified every output and failed no operation."""
    result = run["result"]
    return result.get("correct") is True and result.get("failed", 1) == 0


def failed_runs(runs):
    """{(workload, trace): [seed, ...]} of the runs that are no sample."""
    table = {}
    for run in runs:
        if not run_ok(run):
            st = run["stamp"]
            table.setdefault((st["workload"], st["trace"]), []).append(st["seed"])
    return table


def by_metric(runs):
    """{(workload, trace, metric): {seed: value}} over the runs that
    verified every output."""
    table = {}
    for run in runs:
        if not run_ok(run):
            continue
        st = run["stamp"]
        for name, m in run["result"]["metrics"].items():
            if m["value"] is None:
                continue
            key = (st["workload"], st["trace"], name)
            table.setdefault(key, {})[st["seed"]] = m["value"]
    return table


def compare(base_path, new_path, bench_path):
    """Prints the comparison table; returns 1 when an end-to-end metric
    is worse or failing, else 0."""
    with open(bench_path) as fh:
        bench = json.load(fh)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_runs, new_runs = load(base_path), load(new_path)
    base, new = by_metric(base_runs), by_metric(new_runs)
    base_failed, new_failed = failed_runs(base_runs), failed_runs(new_runs)
    for label, table in (("base", base_failed), ("new", new_failed)):
        for (workload, trace), seeds in sorted(table.items()):
            print(f"{label}: {workload} (trace {trace}) failed runs, left out: seeds {sorted(seeds)}")
    failing = {
        wt for wt, seeds in new_failed.items() if len(seeds) > len(base_failed.get(wt, []))
    }
    for workload, trace in sorted(failing):
        print(f"{workload} (trace {trace}): the new side fails more runs than the base: failing")

    worse = bool(failing)
    header = f"{'workload':<12} {'metric':<38} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'won':>6}  verdict"
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, trace, name = key
        m = meta.get(name, {"better": "higher"})
        higher = m.get("better", "higher") == "higher"
        b, n = base[key], new[key]
        bv, nv = list(b.values()), list(n.values())
        bq, nq = quartiles(bv), quartiles(nv)
        seeds = sorted(set(b) & set(n))
        if seeds:
            pairs = [(b[s], n[s]) for s in seeds]
        else:  # no common seeds: pair runs in file order
            pairs = list(zip(bv, nv))
        wins = sum(1 for x, y in pairs if (y > x if higher else y < x))
        losses = sum(1 for x, y in pairs if (y < x if higher else y > x))
        share = wins / len(pairs) if pairs else 0.0
        delta = nq[1] - bq[1]
        base_iqr = bq[2] - bq[0]
        # Positive when the new side is worse, as a share of the base median.
        rel_worse = (-delta if higher else delta) / abs(bq[1]) if bq[1] else 0.0
        bound = m.get("bound")
        if (workload, trace) in failing:
            verdict = "failing"
        elif pairs and wins >= 0.9 * len(pairs) and abs(delta) > base_iqr:
            verdict = "improved"
        elif bound is None:
            verdict = "worse-layer" if pairs and losses >= 0.9 * len(pairs) and abs(delta) > base_iqr else "-"
        elif rel_worse > bound:
            verdict = "worse"
            worse = True
        elif max(spread(bv), spread(nv)) > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(
            f"{workload:<12} {name:<38} {fmt(bq):>32} {fmt(nq):>32} "
            f"{share:>6.0%}  {verdict}"
        )
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    return compare(args.base, args.new, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
