#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds the benchmark package in this directory (CMake, Release, the
lightwave libraries from ../src) and runs one workload in its own process:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 25 --trace 0

`--workload all` runs churn, flood, recover and figures one after another,
each in its own process. BENCHMARK.json lists churn, flood and recover only;
figures runs the same way but is not a bounded workload (see DROPPED).

Run it from the repository root. The build tree goes to $CARGO_TARGET_DIR
when set, else .bench_build; journal media and span dumps live under it.
The pool thread count is fixed at launch through LIGHTWAVE_THREADS (the CPUs
this process may use). The last stdout line is the JSON result; the exit
code is non-zero when the build, the run or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("churn", "flood", "recover", "figures")
# Workloads left out of BENCHMARK.json, and why; printed when they run.
DROPPED = {
    "figures": "not a bounded workload: on the shared host this was tuned on, its scheduler"
               " simulation ran up to 2x slower between runs on the same inputs, far more"
               " than the host-speed probe moved, so its times cannot repeat within 0.25",
}
ALL = "all"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir, jobs):
    """Configures once, then (re)builds fleet_bench; logs go to build.log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "fleet_bench", "-j", str(jobs)])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "fleet_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + (ALL,),
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(repo_root, "src", "CMakeLists.txt")):
        fail(f"no lightwave sources at {os.path.join(repo_root, 'src')}")
    build_dir = os.path.join(repo_root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cpus = len(os.sched_getaffinity(0))
    binary = build(bench_dir, build_dir, cpus)
    workloads = WORKLOADS if args.workload == ALL else (args.workload,)
    failed = [w for w in workloads if run(binary, build_dir, w, args, cpus) != 0]
    if failed:
        print(f"run.py: failed: {' '.join(failed)}", file=sys.stderr)
    sys.exit(1 if failed else 0)


def run(binary, build_dir, workload, args, cpus):
    """Runs one workload in its own process; returns its exit code."""
    if workload in DROPPED:
        print(f"note: {workload} is {DROPPED[workload]}")
    run_dir = os.path.join(build_dir, "runs", f"{workload}-{os.getpid()}")
    scratch = os.path.join(run_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{workload}-seed{args.seed}.tsv")]
    env = dict(os.environ, LIGHTWAVE_THREADS=str(cpus))
    sys.stdout.flush()
    try:
        code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    shutil.rmtree(run_dir, ignore_errors=True)
    if code is None:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return code


if __name__ == "__main__":
    main()
