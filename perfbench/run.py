#!/usr/bin/env python3
"""End-to-end benchmark runner for SIWA.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus|large|edit \
        --seed N --seconds S --trace 0|1

Builds the repository's sources and the harness optimized (CMake, Release)
under $CARGO_TARGET_DIR (default .bench_build), runs the harness self-test,
generates the workload's seeded inputs, measures, and prints the harness
output. The last line of stdout is the result JSON. Build output goes to
stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "large", "edit")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the benchmarked sources (so results from different code never match)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def step(argv, what):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(what + " failed (exit %d)" % done.returncode, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SIWA sources not found next to perfbench/ (expected src/)", 1)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(os.path.join(ROOT, target))
    build_dir = os.path.join(target, "perfbench")
    step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
         "configure")
    step(["cmake", "--build", build_dir, "-j", str(len(os.sched_getaffinity(0)))],
         "build")
    harness = os.path.join(build_dir, "siwa_perfbench")
    step([harness, "self-test"], "harness self-test")

    inputs = os.path.join(target, "inputs", "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        step([harness, "prepare", "--workload", args.workload,
              "--seed", str(args.seed), "--dir", inputs], "input generation")
        try:
            done = subprocess.run(
                [harness, "run", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace), "--dir", inputs,
                 "--farm-worker", os.path.join(build_dir, "siwa_farm"),
                 "--source-id", source_id()],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        if done.returncode != 0:
            fail("harness exited with %d" % done.returncode, done.returncode)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    main()
