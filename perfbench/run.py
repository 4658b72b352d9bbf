#!/usr/bin/env python3
"""Builds and runs the end-to-end socket benchmark.

    python3 perfbench/run.py --workload browse|analytic|mixed --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the benchmark (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the run's JSON result. Every file the run writes stays under
the build directory, and the scratch database directory is removed
afterwards.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        fail("no xsql sources under " + os.path.join(ROOT, "src"))
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode != 0:
                fail("build step failed: " + " ".join(step))


def run(cmd, env, work_dir):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out_dir = build_dir()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(out_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(out_dir, env)

    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    if args.selftest:
        cmd = [os.path.join(out_dir, "xsql_e2e_selftest"),
               "--work-dir", work_dir]
    else:
        cmd = [os.path.join(out_dir, "xsql_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    sys.exit(run(cmd, env, work_dir))


if __name__ == "__main__":
    main()
