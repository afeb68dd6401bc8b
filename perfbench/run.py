#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload stack_bulk --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the rina library from src/) into .bench_build/;
later calls only rebuild what changed. The script then replaces itself
with the workload process (exec), so each workload runs in a process of
its own and its peak resident memory belongs to it alone. The last
stdout line is the result object; build logs go to stderr.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("stack_bulk", "region_scale", "churn_ctl", "cdn_zipf")


def build():
    """Configure (once) and build; raise CalledProcessError on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(BUILD_DIR / "traces")]
    # Become the workload process: no child to forward signals to or wait
    # for, and its stdout (result line last) is ours.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
