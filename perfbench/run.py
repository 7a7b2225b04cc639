#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload classroom-wc --seed 1 --seconds 10 --trace 0

The first run configures and builds `.bench_build/` (an -O2 Release build of
src/{common,net,hdfs,mapreduce,data,apps} plus the benchmark); later runs
only rebuild what changed. Prints a metadata line for the checkout, then the
benchmark's own output, whose last line is the JSON result. Exits non-zero,
without a result line, when the build fails, and with the benchmark's exit
code otherwise (1 when an oracle check failed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ("classroom-wc", "bulk-wc", "hdfs-staging")
# The benchmark must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def source_digest(root):
    """SHA-256 over the engine and benchmark sources: identifies the code
    measured even when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    print(json.dumps({"meta": {"git_rev": git_rev(),
                               "source_sha256": source_digest(os.getcwd())}}),
          flush=True)

    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", BUILD_DIR]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killed")
            return 1
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        shaped = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        shaped = False
    if not shaped:
        log("benchmark printed no result line")
        sys.stdout.write(output)
        return proc.returncode or 1
    sys.stdout.write(output)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
