#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library from ../src plus the perfbench binary into .bench_build/ (Release,
-march=native); later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is the binary's JSON result. Every child
process runs in its own process group and is killed and reaped on timeout.
Exit status: the binary's (0 ok, 1 wrong output or failure, 2 usage), or 1
when the sources are missing or the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = "4"


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: timed out after {timeout} s: {cmd[0]}", file=sys.stderr)
        return 1


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        rc = run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return False
    rc = run(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
              "-j", JOBS], BUILD_TIMEOUT_S, sys.stderr)
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([str(BUILD / "cmake" / "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--workdir", str(BUILD / "work")], RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
