#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds perfbench/main.exe
with dune (shared build cache off, so nothing is written outside the
checkout), then replaces itself with the benchmark, whose last line of
standard output is the result JSON.  Without the repository around it
(no dune-project) it exits non-zero and prints no result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.exit("perfbench: no dune-project in the current directory; "
                 "run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
