#!/usr/bin/env python3
"""Builds RelKit and the relbench harness from source, then runs one workload.

    python3 relbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build/; run outputs (daemon traces, access logs,
the harness's own span trace) go to relbench/out/. The last line of stdout
is the result object; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("model_zoo", "long_horizon", "monte_carlo")


def build(build_dir):
    """Configures (once) and builds the harness and the daemon."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "relbench", "relkit_serve_bin"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("relbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    out_dir = os.path.join(HERE, "out")
    harness = os.path.join(build_dir, "relbench")
    sys.stdout.flush()
    # The harness times its cold set-up from this exec (CLOCK_MONOTONIC,
    # the clock of its std::chrono::steady_clock).
    os.execv(harness, [harness, "--exec-ns", str(time.monotonic_ns()),
                       "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", args.trace,
                       "--serve", os.path.join(build_dir, "relkit_serve"),
                       "--out", out_dir])


if __name__ == "__main__":
    main()
