#!/usr/bin/env python3
"""Build and run the end-to-end timer-service benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: server_churn, server_fanout, cluster_r3.

The first run configures and builds the benchmark (and the library sources
under src/) in Release into .bench_build/e2ebench; later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's result object. Per-run results files, which also record the seed
and the step sample count, go to .bench_build/e2ebench/results/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("server_churn", "server_fanout", "cluster_r3")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "core" / "timer_service.h").is_file():
        print("e2ebench: library sources not found under " + str(root / "src"),
              file=sys.stderr)
        return 2

    build_dir = root / ".bench_build" / "e2ebench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ):
        built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    bench = subprocess.run([
        str(build_dir / "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(results),
    ])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
