#!/usr/bin/env python3
"""Builds qobench from this checkout and runs one workload.

    python3 bench/qobench/run.py --workload offline --seed 7 --seconds 10 --trace 0

--seconds sizes the workload so its timed phase lasts about that long on the
reference host. --trace 1 adds the traced run and reports the per-layer
metrics instead of the end-to-end ones. The build goes to .bench_build/qobench
under the checkout root; its output goes to stderr, so the last line of stdout
is qobench's JSON result. Exits non-zero, printing no result, when the build
fails (for instance when the sources under src/ are missing).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "qobench")


def build():
    """Configures (once) and builds qobench; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    step = ["cmake", "--build", BUILD, "--target", "qobench", "-j", "3"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "qobench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["offline", "serve_hot", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("qobench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
