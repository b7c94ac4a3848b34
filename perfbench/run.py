#!/usr/bin/env python3
r"""Build the repository benchmark from source and run it.

From the repository root:

    python3 perfbench/run.py --workload car-attack --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/bench.exe with dune, then runs it with the given
arguments. The last line of its output is the JSON result. See bench.ml
for the workloads and metrics.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print(f"perfbench: no dune-project in {ROOT}; run it from a source "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout: keep it off
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display=quiet",
         "--cache=disabled", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    # One CPU for the whole run: on a shared host how soon a second CPU
    # runs a woken thread varies from minute to minute, and serve-small's
    # hand-offs between the client, the daemon's threads and its worker
    # domain sped up or slowed down 3x with it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                          timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
