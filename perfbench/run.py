#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload oneshot-zoo --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe with dune, computes the reference outputs
in one process (`bench.exe oracle`), then measures in a fresh process
(`bench.exe run`) that checks every op against them. The last line of
stdout is the JSON result; build and diagnostic output go to stderr.
Exits non-zero, without a result, when the build or the oracle fails,
and non-zero after the result when an op failed or a flight leaked.
See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("oneshot-zoo", "serve-repeat", "serve-churn")

BUILD_TIMEOUT_S = 850
ORACLE_TIMEOUT_S = 60
# the traced mode runs the workload twice; a serve pass has a floor
RUN_SLACK_S = 120


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1", "all"), default="0",
                   help="0: end-to-end metrics; 1: per-layer metrics "
                        "from a traced run; all: both (self-check)")
    p.add_argument("--rate", type=float,
                   help="serve arrival rate per virtual second "
                        "(rate tuning only; the workloads fix it)")
    args = p.parse_args()

    # no shared dune cache: the build reads and writes the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.rate is not None:
        common += ["--rate", repr(args.rate)]
    oracle = subprocess.run([exe, "oracle"] + common, stdout=subprocess.PIPE,
                            stderr=sys.stderr, timeout=ORACLE_TIMEOUT_S)
    if oracle.returncode != 0 or not oracle.stdout.strip():
        print("perfbench: oracle failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [exe, "run"] + common
        + ["--seconds", repr(args.seconds), "--trace", args.trace],
        input=oracle.stdout, stdout=subprocess.PIPE, stderr=sys.stderr,
        timeout=2 * args.seconds + RUN_SLACK_S)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
