#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-eval --seed 2015 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes through dune, with its output on stderr.  The benchmark
then runs with the given arguments, the recorded digests
(perfbench/digests.txt) and a results directory (_perfbench/, one JSON
file per run).  Its stdout passes through unchanged, so the last line is
the result object.  The exit code is non-zero if the build or the run
fails, and nothing is printed on stdout in that case.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = "2015"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def pin_to_one_cpu():
    """Keep the benchmark and its calibration helper on one CPU.

    The shared host slows its CPUs unevenly, so the helper's readings
    only describe the workload's speed if both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--seed" not in args:
        args += ["--seed", DEFAULT_SEED]
    args += ["--digests", os.path.join(HERE, "digests.txt"),
             "--out", os.path.join(ROOT, "_perfbench")]
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    try:
        return subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              preexec_fn=pin_to_one_cpu).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
