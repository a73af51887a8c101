#!/usr/bin/env python3
"""Builds the microprov service benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|query --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

The library (src/) and the benchmark program are built with CMake in
Release mode under .bench_build/perfbench; the first run pays the build,
later runs only an up-to-date check. Build output goes to stderr. The program's last
line on stdout is the result: one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures (once) and builds the program; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time when several runs start together.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                               stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "query"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "smoke"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    command = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--size", args.size, "--work-dir", RUN_DIR]
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
