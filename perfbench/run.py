#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is configured and built
with CMake (perfbench/CMakeLists.txt, which builds ../src) under the
directory named by CARGO_TARGET_DIR, or .bench_build when that is unset;
a build that is up to date costs well under a second.  Build output goes
to standard error, so the benchmark's result stays the last line of
standard output.  The exit status is the benchmark's, or 1 if the build
fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "2"


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir] + generator)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
