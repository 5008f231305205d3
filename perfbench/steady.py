#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

Runs each workload once per seed through run.py, then prints for every
end-to-end metric the median, the first and third quartiles and the spread
(Q3 - Q1) / median against the metric's bound from BENCHMARK.json. With
--sets 2 it measures a second set on fresh seeds and also reports how far the
second median moved from the first, and whether the share of failed
operations is the same. Exits 1 when a spread (setup_s excepted) or a median
shift exceeds its bound.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads sharded-lan --runs 5 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stderr[-2000:])
            sys.exit(f"steady: {workload} seed {seed} exited {p.returncode}")
        r = json.loads(p.stdout.strip().splitlines()[-1])
        if not r["correct"]:
            sys.stderr.write(p.stderr[-2000:])
            sys.exit(f"steady: {workload} seed {seed} reported correct=false")
        results.append(r)
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
            flush=True)
    return results


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("quartiles need at least 4 runs")

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            first = args.first_seed + 1000 * k
            seeds = range(first, first + args.runs)
            sets.append(run_set(workload, seeds, args.seconds))
        print(f"{workload}:")
        print(f"  {'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for m in SPEC["end_to_end"]:
            medians = []
            for k, results in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                exempt = m["name"] == "setup_s"
                flag = ("" if exempt or spread <= m["bound"] / 3 else
                        "  above a third of the bound" if spread <= m["bound"]
                        else "  ABOVE BOUND")
                if not exempt and spread > m["bound"]:
                    ok = False
                print(f"  {m['name']:<22}{k + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{spread:>9.4f}{m['bound']:>7}{flag}")
            if len(medians) == 2:
                shift = worse_by(m, medians[0], medians[1])
                verdict = "ok" if shift <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and shift <= m["bound"]
                print(f"  {m['name']:<22} second median worse by {shift:+.4f}"
                      f" ({verdict})")
        shares = [Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in sets]
        shares_per_run = {Fraction(r["failed"], r["attempted"])
                          for s in sets for r in s}
        same = len(shares_per_run) == 1
        ok = ok and same
        print(f"  failed share per run: {sorted(str(x) for x in shares_per_run)}"
              f" per set: {[str(x) for x in shares]}"
              f" ({'same' if same else 'DIFFERS'})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
