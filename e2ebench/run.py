#!/usr/bin/env python3
"""Build and run the cldpc end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload engine_c2_4p2db --seed 1 \
        --seconds 10 --trace 0

Every call configures and builds the `e2ebench` binary (and the cldpc
library it links) into .bench_build/e2ebench with CMake; only the first
compiles everything, later calls rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. All arguments are
passed through to the binary (see e2ebench/main.cpp); the exit code is
the binary's, or nonzero when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
JOBS = "4"


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", JOBS], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "e2ebench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
