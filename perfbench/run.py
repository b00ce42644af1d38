#!/usr/bin/env python3
"""Run one workload of the anyseq benchmark.

Usage (from anywhere; paths resolve against the repository root):

    python3 perfbench/run.py --workload <reads_batch|genome_pair|serve_mixed>
                             --seed N --seconds S [--trace 0|1] [--out FILE]

Builds `perfbench/` (a cargo package of its own that compiles the
library crates from source) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs the workload. `--trace 0` prints the
end-to-end metrics; `--trace 1` prints the per-layer metrics and writes
the run's spans as a Chrome trace under `<target>/perfbench/`.

The last stdout line is the result object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`. Its metrics are every
end-to-end metric of BENCHMARK.json (`--trace 0`; a run that lacks one
fails) or every per-layer metric (`--trace 1`; those of layers the
workload does not enter read 0). The lines before it
include `detail {...}` (median, tail percentile and sample count of
every timing) and `stamp {...}` (seed, source revision, build profile,
rustc version, nproc, CPU flags). `--out FILE` appends the stamped
record as one JSON line, the input of `perfbench/compare.py`.

Exit status: 0 on a verified run, 1 when an output failed
verification, 2 when the library sources are missing or the build
failed, 3 when the run exceeded its time limit.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ("reads_batch", "genome_pair", "serve_mixed")
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs from a
    checkout without git history still identify what they measured."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_flags():
    flags = set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    flags.update(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    return {f: f in flags for f in ("avx2", "avx512bw")}


def stamp(args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_profile": "release",
        "rustc": command_output(["rustc", "--version"]),
        "nproc": nproc,
        "cpu_flags": cpu_flags(),
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured seconds (BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the stamped run record to this JSON-lines file")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "engine", "Cargo.toml")):
        print(
            "perfbench: the anyseq library sources (crates/) are not in this "
            "directory; run from a full checkout",
            file=sys.stderr,
        )
        return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # A relative artifact directory keeps the daemon's socket path short.
    out_dir = os.path.relpath(os.path.join(target, "perfbench"), ROOT)
    binary = os.path.join(target, "release", "anyseq-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the run printed no result line", file=sys.stderr)
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = result["metrics"]
    if args.trace:
        for m in bench["per_layer"]:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    else:
        missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in metrics]
        if missing:
            print(f"perfbench: the run lacks end-to-end metrics {missing}", file=sys.stderr)
            return 1
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        print(line)
    st = stamp(args)
    print("stamp " + json.dumps(st, sort_keys=True))
    print(json.dumps(result), flush=True)
    if args.out:
        with open(args.out, "a") as fh:
            record = {"stamp": st, "result": result, "detail": detail}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
