#!/usr/bin/env python3
"""Run the benchmark over a range of seeds and report the spreads.

Usage:

    python3 perfbench/sweep.py --out NEW.jsonl [--runs 10] [--first-seed 1]
                               [--workloads reads_batch,...] [--trace 0|1]
                               [--base-root DIR --base-out BASE.jsonl]

Calls `perfbench/run.py` once per (workload, seed), writing each
stamped record to NEW.jsonl (a new file), then prints per workload x
end-to-end metric the median and the spread (interquartile range /
median, as `statistics.quantiles(values, n=4)` gives the quartiles)
next to the metric's bound from BENCHMARK.json, and lists every run
that failed or mis-verified an output (such runs are no sample).

With `--base-root DIR`, another checkout (for example the parent
commit, or a copy of this one to check that two sets of runs of one
commit agree), the sweep is an A/B comparison: for every seed it runs
both checkouts back to back and alternates which of them goes first,
so host drift during the sweep falls on both sides alike and cancels
within each seed pair. The base records go to BASE.jsonl, and the
sweep ends with the verdicts of `perfbench/compare.py`. Each checkout
builds into its own `.bench_build`.
"""

import argparse
import json
import os
import subprocess
import sys

from compare import ROOT, by_metric, compare, failed_runs, load, quartiles, spread


def run_one(label, root, workload, seed, args, seconds, out, env):
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--out", os.path.abspath(out),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, env=env)
    last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{label}{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
    return proc.returncode != 0


def print_spreads(label, path, args, bounds):
    runs = load(path)
    table = by_metric(runs)
    workloads = args.workloads.split(",")
    print(f"\n{label}{'workload':<12} {'metric':<24} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    for (workload, trace, name), values in sorted(table.items()):
        if trace != args.trace or workload not in workloads:
            continue
        v = list(values.values())
        b = bounds.get(name)
        s = spread(v)
        flag = "" if b is None else ("  ok" if s <= b / 3 else ("  <bound" if s <= b else "  OVER"))
        print(
            f"{label}{workload:<12} {name:<24} {len(v):>3} {quartiles(v)[1]:>12.5g} "
            f"{s:>8.3f} {'' if b is None else b:>6}{flag}"
        )
    for (workload, trace), seeds in sorted(failed_runs(runs).items()):
        print(f"{label}{workload}: failed runs, left out: seeds {sorted(seeds)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base-root", help="checkout to compare against, run alternately")
    ap.add_argument("--base-out", help="JSON-lines file for the base checkout's records")
    args = ap.parse_args()
    if (args.base_root is None) != (args.base_out is None):
        ap.error("--base-root and --base-out go together")
    for path in (args.out, args.base_out):
        if path and os.path.exists(path):
            ap.error(f"{path} exists; a sweep writes a new file")

    sides = [("", ROOT, args.out)]
    env = dict(os.environ)
    if args.base_root:
        sides = [("new  ", ROOT, args.out), ("base ", os.path.abspath(args.base_root), args.base_out)]
        env.pop("CARGO_TARGET_DIR", None)  # one build directory per checkout
    failed = 0
    for workload in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            order = sides if seed % 2 else sides[::-1]
            for label, root, out in order:
                failed += run_one(label, root, workload, seed, args, bench["run_seconds"], out, env)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for label, _, out in sides:
        print_spreads(label, out, args, bounds)
    if args.base_root:
        print()
        failed += compare(args.base_out, args.out, os.path.join(ROOT, "BENCHMARK.json"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
