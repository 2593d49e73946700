#!/usr/bin/env python3
"""Run one workload N times and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --workload serve-mix --runs 10
    python3 perfbench/repeat.py --workload edge-stream --runs 10 --sets 2

Each run is `perfbench/run.py` with its own seed (--first-seed,
--first-seed + 1, ...; every set reuses the same seeds). For every
metric the script prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, which is the
inter-quartile distance as a share of the median. With --sets 2 it
also compares the two sets against the bounds in BENCHMARK.json:
each end-to-end metric's spread (setup_s included) must stay within
its bound in both sets, the two medians must differ by at most the
bound (|median2 - median1| / median1, in either direction), and the
share of failed operations must match exactly. The exit code is 1
when a comparison fails. Runs are untraced: the end-to-end metrics
come only from untraced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"repeat: seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"repeat: seed {seed} reported correct=false")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(args, label):
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(run_once(args.workload, seed, args.seconds))
        print(f"{label} seed {seed} done", file=sys.stderr)
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n{label}: {args.workload}, {args.runs} runs, "
          f"failed {failed}/{attempted}")
    print(f"{'metric':24} {'unit':10} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}")
    summary = {}
    for name, (unit, values) in metrics.items():
        med, q1, q3, spread = summarise(values)
        summary[name] = (med, spread)
        print(f"{name:24} {unit:10} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f}  " + " ".join(f"{v:.4g}" for v in values))
    shares = {r["failed"] / r["attempted"] for r in results}
    return summary, shares


def compare(first, second, bench):
    ok = True
    print(f"\n{'metric':24} {'bound':>6} {'spread1':>8} {'spread2':>8} "
          f"{'shift':>8}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        (med1, s1), (med2, s2) = first[name], second[name]
        shift = abs(med2 - med1) / med1
        good = shift <= bound and s1 <= bound and s2 <= bound
        ok = ok and good
        print(f"{name:24} {bound:6.3f} {s1:8.3f} {s2:8.3f} {shift:8.3f}  "
              f"{'ok' if good else 'FAIL'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.runs < 2:
        sys.exit("repeat: --runs must be at least 2 for quartiles")

    first, shares1 = run_set(args, "set 1")
    if args.sets == 1:
        return
    second, shares2 = run_set(args, "set 2")
    ok = compare(first, second, bench)
    if shares1 != shares2 or len(shares1) != 1:
        print(f"failed-operation shares differ: {shares1} vs {shares2}")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
