#!/usr/bin/env python3
"""Sweep benchmark for simsweep: build perfbench_driver, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (a CMake package that
compiles the simsweep libraries from src/) into .bench_build/perfbench in
Release mode, then runs the in-process perfbench_driver.  The last line of
stdout is its JSON result; build output goes to stderr.  See README.md.

--selftest builds and runs the benchmark's unit tests, then checks end to
end that a perturbed pinned digest is reported as a failure and that the
real one passes.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "perfbench-work")
WORKLOADS = ("spares_dynamism", "crash_recovery")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; output goes to stderr."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
            stdout=sys.stderr, stderr=sys.stderr, check=True)


def run_driver(args):
    """Runs perfbench_driver; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench_driver"), "--work-dir", WORK] + args,
        stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S,
        cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def selftest():
    build(["perfbench_driver", "perfbench_selftest"])
    failures = 0
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        failures += 1
    for workload in WORKLOADS:
        common = ["--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", "0"]
        for digest, want_correct in (("0123456789abcdef", False),
                                     (None, True)):
            extra = ["--expect-digest", digest] if digest else []
            code, lines = run_driver(common + extra)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            got = result.get("correct")
            failed_cells = result.get("failed", 0)
            ok = got is want_correct and (failed_cells > 0) != want_correct
            label = "perturbed digest" if digest else "pinned digest"
            log("selftest %s, %s: correct=%s failed=%s -> %s" % (
                workload, label, got, failed_cells, "ok" if ok else "FAIL"))
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        if opts.selftest:
            return selftest()
        if opts.workload is None:
            parser.error("--workload is required")
        build(["perfbench_driver"])
        code, lines = run_driver([
            "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", opts.trace])
    except (OSError, subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        return 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
