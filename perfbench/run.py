#!/usr/bin/env python3
"""Builds the STTSV benchmark from the surrounding source tree and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload panel-b16 --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench under the repository root and is
reused by later runs. Build output goes to stderr; the benchmark's own
stdout is passed through, so its last line is the JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("panel-b16", "serve-light", "reliable-p20")
# The benchmark itself must finish within 180 s; leave room for the build
# check and process start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no library sources under {root}/src; nothing to benchmark")
        return 2
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
