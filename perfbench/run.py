#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exec-fig15 --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (the first build compiles the
library from source), then runs it with the same arguments.  The last
line of stdout is the JSON result; build output goes to stderr.  Exits
non-zero when the build fails, the benchmark finds a wrong output, or
the run overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of a checkout (no dune-project here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
