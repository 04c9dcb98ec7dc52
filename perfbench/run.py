#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hd_trailer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest      # unit tests of the helpers

The build lives in .bench_build/perfbench (configured once, incremental
afterwards; its log is .bench_build/perfbench/build.log). The benchmark
binary replaces this process, so its exit code and output are the run's:
the last stdout line is the JSON result, and a wrong output exits nonzero
without one. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hd_trailer", "stream_chaos", "fleet_shared")


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_stats_test"):
            return 1
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"]).returncode
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    if not build("perfbench"):
        return 1
    binary = os.path.join(BUILD, "perfbench")
    # One process, one thread: keep any OpenMP runtime from fanning out.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(binary, [binary, "--workload=" + args.workload,
                       "--seed=%d" % args.seed,
                       "--seconds=%r" % args.seconds,
                       "--trace=%d" % args.trace], env)


if __name__ == "__main__":
    sys.exit(main())
