#!/usr/bin/env python3
"""Steadiness check: run one workload k times and judge each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>] [--trace 0|1] [--same-seed]

Each run uses another seed (first-seed, first-seed + 1, ...), which is how
the benchmark's bounds are judged.  With --same-seed every run uses
first-seed, so the spread is the host's noise alone; the difference between
the two is the spread that different inputs add.  For every
metric the script prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread (Q3 - Q1) /
median, and the metric's bound from BENCHMARK.json with the spread as a
share of it.  It also prints the failed share of operations of every run,
which must be the same in all of them.  Exits non-zero when a run fails,
when the failed shares differ, or when an end-to-end spread exceeds its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: run exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed instead of varying it")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    shares = []
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else k)
        result = run_once(args.workload, seed, seconds, args.trace)
        ok = ok and result["correct"]
        shares.append(f'{result["failed"]}/{result["attempted"]}')
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{name}={metric['value']:.5g}"
                       for name, metric in sorted(result["metrics"].items())),
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'of bound':>8}")
    for name, series in sorted(values.items()):
        middle = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / middle if middle else float("inf")
        bound = bounds.get(name)
        share = f"{spread / bound:8.2f}" if bound else f"{'-':>8}"
        print(f"{name:28} {middle:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {bound if bound else '-':>6} {share}")
        if bound and spread > bound:
            ok = False
    distinct = sorted(set(
        int(s.split("/")[0]) / int(s.split("/")[1]) for s in shares))
    print(f"failed share per run: {', '.join(shares)} "
          f"({'same in every run' if len(distinct) == 1 else 'DIFFERS'})")
    if len(distinct) != 1:
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
