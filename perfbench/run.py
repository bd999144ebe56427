#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload reproduce_12k|churn_4k|serve_4k \
        --seed N --seconds S --trace 0|1 [--threads T]

Run from the repository root. The first run configures and builds an
optimised tree (CMake, Release) under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs rebuild only what changed. Build output goes
to standard error. Standard output is the benchmark's own: a run record,
then one JSON result line, last. Traces and records land in
<build dir>/runs.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    out_dir = build_root / "runs"
    jobs = str(os.cpu_count() or 1)

    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "asrel_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "asrel_perfbench"), *sys.argv[1:],
               "--out-dir", str(out_dir)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
