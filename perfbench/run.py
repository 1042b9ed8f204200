#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload hot-zipf-tcp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; spill files and traces go to <build dir>/work. The driver's
last stdout line is the result JSON. Build output goes to stderr. Exits
non-zero without a result when the sources or the toolchain are missing.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; leave room for start-up and shutdown.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)


def source_sha():
    """Content hash of src/ (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit test")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "dppr")):
        print("perfbench: no dppr sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    out_dir = build_dir()
    try:
        build(out_dir, "perfbench_logic_test" if args.self_test else "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(out_dir, "perfbench_logic_test")]).returncode
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--git-sha", git_sha(), "--source-sha", source_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
