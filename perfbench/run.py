#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload online_apt --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench against ../src into
.bench_build/perfbench; later calls only re-check the build. Everything
the benchmark writes (build tree, spill files, Chrome traces) stays under
.bench_build unless --work-dir names another place for spills and traces.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the
library sources are missing or the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
# A run must end within 180 s; leave headroom to report a timeout.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources at %s" % (ROOT / "src"),
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    cmd = [str(BUILD_DIR / "perfbench"), *argv]
    if "--work-dir" not in argv:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--work-dir", str(WORK_DIR)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
