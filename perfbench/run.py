#!/usr/bin/env python3
"""Builds gdelay's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run it from the repository root. The library and the harness are built
with CMake under .bench_build/perfbench (incremental after the first
run); the harness then prints its metrics, the last stdout line being one
JSON object. --selftest builds and runs the benchmark's own tests.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench_work")
JOBS = str(min(4, os.cpu_count() or 1))


def build(target):
    """Configures once, then builds `target`; build chatter goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2008)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not args.workload:
        ap.error("--workload is required")
    if not build("gdelay_perfbench"):
        return 1
    cmd = [os.path.join(BUILD, "gdelay_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", WORKDIR]
    try:
        return subprocess.run(cmd, timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
