#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

    python3 perfbench/run.py --workload fleet|paper|chaos --seed N \
        --seconds S --trace 0|1

The first run configures and builds the simulator libraries and the driver
into .bench_build/perfbench under the repository root (about a minute on
four cores); later runs only confirm the build is current. Build output
goes to stderr. The driver's last line on stdout is the JSON result; it
exits 0 when it printed one. A failed build exits 1 and prints no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "mmog_perfbench")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD, "--target", "mmog_perfbench",
         "--parallel", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("run.py: building the benchmark driver failed", file=sys.stderr)
        return 1
    return subprocess.run([DRIVER] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
