#!/usr/bin/env python3
"""Builds and runs the PILOTE benchmark from the root of a checkout.

    python3 perfbench/run.py --workload device_stream --seed 1 \
        --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the repository's libraries
from source) into .bench_build/perfbench on first use, runs the helper
tests once per build, then runs the driver. The driver's report goes to
stdout; its last line is the JSON result. Build output goes to stderr.
Exits non-zero without a result when the build, the helper tests or the
run fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("device_stream", "log_replay", "learn_under_load")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail(f"{' '.join(cmd)} failed: {error}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no PILOTE sources under {ROOT}; run from the repository root")
    stamp = os.path.join(BUILD, "helpers_tested")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, *generator,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs,
                "--target", "perfbench", "perfbench_test"], timeout=600)
    test_binary = os.path.join(BUILD, "perfbench_test")
    if (not os.path.isfile(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(test_binary)):
        run_logged([test_binary, "--gtest_brief=1"], timeout=120)
        with open(stamp, "w") as f:
            f.write("ok\n")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no JSON result")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    # A wrong label (status 1) still reports its result, with correct=false.
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
