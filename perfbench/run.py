#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read_rules --seed 1 --seconds 10 --trace 0

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build). The binary's
standard output is passed through; its last line is the JSON result. With
--trace 1 the recorded spans are also written to
$CARGO_TARGET_DIR/perfbench-trace/<workload>-seed<seed>.tsv.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("read_rules", "write_index", "listen_fanout")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {built.returncode}")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out = os.path.join(target, "perfbench-trace", f"{args.workload}-seed{args.seed}.tsv")
        cmd += ["--trace-out", out]
    try:
        ran = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
