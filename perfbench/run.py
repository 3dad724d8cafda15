#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload select_point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --smoke         # every workload at smoke size: the
                                             # benchmark's own test

Run from the repository root. The engine under src/ and the load generator
in perfbench/ are compiled into .bench_build/perfbench (CMake, Release) on
first use and brought up to date on every run; build output goes to
stderr. Each workload runs in its own process; its report ends with one
JSON line (correct, attempted, failed, metrics). With --workload all the
last line instead merges the runs, metric names prefixed by workload.
The exit code is non-zero when the build fails or any check fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "toss_perfbench")
WORKLOADS = ["select_point", "select_scan", "join_title", "ingest_mixed"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=REPO, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_one(args, workload):
    """Runs one workload; returns (exit code, its result object or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, same code paths and checks")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args, args.workload)[0]

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, result = run_one(args, workload)
        if code != 0 or result is None:
            status = 1
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
