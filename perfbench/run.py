#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark, run one workload, print its result.

    python3 perfbench/run.py --workload <pieri_tree|path_drain|solve_service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every invocation configures a
Release build of perfbench/ (which pulls in the project's own CMakeLists.txt)
and rebuilds the binary, so a stale binary is never measured.  The build
directory is $CARGO_TARGET_DIR if set, else .bench_build; scratch files of
the run (the drained store, the span dump) go to <build>/run.

The workload runs in a process of its own, so its peak RSS is its own.  The
last line of stdout is the binary's JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; a mismatch with BENCHMARK.json, a
failed output check, or a build failure exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pieri_tree", "path_drain", "solve_service")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configure (fixed Release build type) and build the benchmark binary."""
    configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "perfbench",
                            "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log(f"no project sources at {root}: nothing to build or measure")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(bench_dir, build_dir):
        return 3
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"the benchmark exited {done.returncode} without a result line")
        return done.returncode or 5

    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        log(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
        result["correct"] = False
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    if not result["correct"]:
        return done.returncode or 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
