#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The harness (perfbench/harness, built by
perfbench/CMakeLists.txt against the program's libraries in src/) is
configured and built incrementally under .bench_build/ before every run; the
build log goes to stderr so that the last line of stdout stays the harness's
JSON result. Exits non-zero, without a result, when the build or the run
fails. See perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
BUILD_JOBS = "4"


def build():
    """Configures (once) and builds the harness; returns True on success."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD],
            stdout=log, stderr=log, check=False)
        if configure.returncode != 0:
            return False
    compiled = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_harness",
         "-j", BUILD_JOBS],
        stdout=log, stderr=log, check=False)
    return compiled.returncode == 0 and os.path.exists(HARNESS)


def main():
    if not build():
        print("perfbench: building the harness failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    run = subprocess.run([HARNESS] + sys.argv[1:], cwd=ROOT, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
