#!/usr/bin/env python3
"""Build and run the eelsched benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tables|rewrite|service \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures the
repository's own CMake project in a Release tree of the benchmark's
own (.bench_build/perfbench), hooked by perfbench/build.cmake, and
builds only the benchmark's targets; later calls rebuild what changed.
Build output goes to stderr, so stdout's last line is the benchmark's
JSON result. --selftest runs perfbench_checks, which shows that every
output check rejects a corrupted input.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no eelsched sources next to perfbench/ (run from a "
             "checkout of the repository)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_eelsched_INCLUDE=" +
               os.path.join(HERE, "build.cmake")]
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        fail("build failed")


def run(cmd):
    """Run cmd from the root, pass its stdout through, return its code."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["tables", "rewrite", "service"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")

    if args.selftest:
        build(["perfbench_checks"])
        sys.exit(run([os.path.join(BUILD, "perfbench_checks")]))
    build(["perfbench"])
    sys.exit(run([os.path.join(BUILD, "perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]))


if __name__ == "__main__":
    main()
