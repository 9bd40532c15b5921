#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seconds 2] [--seeds 1,2]

For each workload: two runs at the first seed must give identical
modeled makespans and counts, and modeled latencies within 1e-6
relative; a run at the second seed must see different input tables
(its oracle digests differ) and still fail nothing. Every run must be
correct. Run from the root of a source checkout; exits 1 on any
violation.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("oneshot-zoo", "serve-repeat", "serve-churn")
EXACT = (
    "modeled_makespan_s", "relation.pool.batches", "relation.pool.tasks",
    "core.plan_cache.hits", "core.plan_cache.misses",
    "core.plan_cache.invalidations", "engines.subplan_share.attached",
    "engines.subplan_share.paid", "serve.subresult.hits",
    "serve.subresult.misses", "serve.subresult.evictions",
    "serve.subresult.invalidations", "serve.subresult.bytes_mb",
    "engines.scan_share.saved_mb",
)
CLOSE = ("modeled_latency_mean_s", "modeled_latency_p99_s",
         "serve.queue_delay_p99_s")
EXE = "_build/default/perfbench/bench.exe"


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "all"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def oracle(workload, seed):
    return subprocess.run(
        [EXE, "oracle", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=2)
    p.add_argument("--seeds", default="1,2")
    args = p.parse_args()
    a, b = (int(s) for s in args.seeds.split(","))
    problems = []
    for w in WORKLOADS:
        runs = [run(w, a, args.seconds), run(w, a, args.seconds),
                run(w, b, args.seconds)]
        for seed, (result, _) in zip((a, a, b), runs):
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} seed {seed}: {result['failed']} failed")
        (_, m1), (_, m2) = runs[0], runs[1]
        for k in EXACT:
            if m1[k] != m2[k]:
                problems.append(f"{w} {k}: {m1[k]} != {m2[k]}")
        for k in CLOSE:
            if abs(m1[k] - m2[k]) > 1e-6 * max(abs(m1[k]), abs(m2[k])):
                problems.append(f"{w} {k}: {m1[k]} vs {m2[k]}")
        if oracle(w, a) == oracle(w, b):
            problems.append(f"{w}: seeds {a} and {b} give the same inputs")
        print(f"{w}: checked", file=sys.stderr)
    for line in problems:
        print("selfcheck: " + line, file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
