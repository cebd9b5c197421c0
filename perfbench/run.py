#!/usr/bin/env python3
"""Build and run the uexc benchmark.

    python3 perfbench/run.py --workload <gc|exc|migrate|proc> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the simulator library and the uexc-perfbench binary from source (a
Release build under .bench_build/perfbench in the checkout); later
calls only check the build is current. Build output goes to standard error, so the last
line of standard output is the binary's JSON result. The exit code is
the binary's: 0 when every correctness check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("gc", "exc", "migrate", "proc")


def build(out: Path) -> Path:
    """Configure (once) and build the binary; return its path."""
    if not (ROOT / "src" / "sim" / "machine.h").is_file():
        raise RuntimeError(f"no uexc sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "uexc-perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "uexc-perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build(BUILD_DIR)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".perfbench_out")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
