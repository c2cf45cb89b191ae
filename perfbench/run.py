#!/usr/bin/env python3
"""Build and run the mphls benchmark of record.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz-standard --seed 1 --seconds 20 --trace 0

Workloads: fuzz-standard, dse-ladder, serve-mix (see BENCHMARK.json).
The first run configures and builds the repository's libraries, the mphls
CLI and the perfbench binary (Release) into .bench_build (or
$CARGO_TARGET_DIR, relative to the repository root); later runs rebuild
incrementally. Build output goes to stderr. The last line of stdout is the
JSON result of the perfbench binary; the exit code is its exit code (0:
every output was correct).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench", "mphls"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fuzz-standard", "dse-ladder", "serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("mphls sources not found next to perfbench/ (expected src/)")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    exe = os.path.join(build_dir, "perfbench")
    mphls = os.path.join(build_dir, "mphls", "cli", "mphls")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mphls", mphls, "--work-dir", build_dir]
    # perfbench and the daemon it starts form one process group, so that
    # nothing outlives the run, even on a timeout or a crash.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    reap(proc.pid)
    lines = out.splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        fail("perfbench exited with code %d" % proc.returncode, 1)
    sys.exit(proc.returncode)


def reap(pgid):
    """Kill what is left of process group `pgid` and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    main()
