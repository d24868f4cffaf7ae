#!/usr/bin/env python3
"""Runs one workload repeatedly and reports how steady each metric is.

    python3 e2ebench/steady.py --workload read-cold --runs 10 --seconds 20

Each run uses another seed (--seed-base + i). For every metric of the
result the command prints the median, the quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median -- the figure the
bounds in BENCHMARK.json are set against. It also prints the benchmark's
fixed host reference computation, timed before and after the measured
phase of every run: if that moves as much as the metrics do, the host's
speed drifted, not the program.

With --trace 1 every seed also runs untraced, and the two runs' answers
digests must be equal: tracing may not change an answer. A mismatch, like
a wrong answer or a failed run, makes the command exit 1.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF = re.compile(r"host_ref_ms before=([0-9.]+) after=([0-9.]+)")
DIGEST = re.compile(r"rounds=(\d+) .*answers_digest=([0-9a-f]+)")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload, seed, seconds, trace):
    """(result, host reference times, (rounds, answers digest)) of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    result = json.loads(lines[-1])
    ref = REF.search(proc.stderr)
    digest = DIGEST.search(proc.stderr)
    return (result, [float(ref.group(1)), float(ref.group(2))] if ref else [],
            digest.groups() if digest else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results, refs, mismatches = [], [], []
    for i in range(args.runs):
        seed = args.seed_base + i
        result, ref, digest = run_once(args.workload, seed, args.seconds,
                                       args.trace)
        results.append(result)
        refs.extend(ref)
        note = ""
        if args.trace == 1:
            _, _, untraced = run_once(args.workload, seed, args.seconds, 0)
            if digest is None or digest != untraced:
                mismatches.append(seed)
                note = f" answers differ from the untraced run: {digest} vs {untraced}"
            else:
                note = " answers equal the untraced run's"
        summary = " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()
                           if args.trace == 0)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{summary}{note}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds}s")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, rel = spread(values)
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.3f}"
              f"  {first['unit']}")
    if refs:
        med, q1, q3, rel = spread(refs)
        print(f"{'host_ref_ms (benchmark-owned)':36} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {rel:8.3f}  ms")
    shares = {r["failed"] / r["attempted"] for r in results}
    all_correct = all(r["correct"] for r in results)
    print(f"failed share per run: {sorted(shares)}; all correct: {all_correct}")
    if mismatches:
        print(f"traced answers differ from untraced ones for seeds {mismatches}")
    return 0 if all_correct and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
