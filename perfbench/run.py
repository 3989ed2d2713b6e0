#!/usr/bin/env python3
"""Builds the benchmark driver in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
`.bench_build/` (the repository's libraries, fedrec_shardd and the driver);
later runs only re-check the build. Build output goes to stderr, so the last
line on stdout is the driver's JSON result. SIGTERM and SIGINT are forwarded
to the driver, which stops its fedrec_shardd processes and removes its
temporary files before exiting.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("paper_attack", "robust_crossdevice", "socket_fleet")


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1

    child = subprocess.Popen(
        [DRIVER, "--workload=" + args.workload, "--seed=%d" % args.seed,
         "--seconds=%d" % args.seconds, "--trace=%d" % args.trace],
        cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
