#!/usr/bin/env python3
"""End-to-end benchmark of the consensus simulator.

Builds the program from source, then runs whole rounds of one workload, one
process per round, until --seconds have passed, and prints one JSON object as
the last line of standard output:

    python3 perfbench/run.py --workload caesar-conflict --seed 7 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of the untraced run (host figures
as medians over the rounds); --trace 1 reports the per-layer metrics of the
traced run. --selftest runs the self-tests of the independent checks.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (
    "caesar-conflict",
    "caesar-crowd-partition",
    "mencius-batched-lan",
    "sharded-lan",
)
# Metric names and units come from the benchmark's definition file.
SPEC_FILE = ROOT / "BENCHMARK.json"
# Simulated figures: a pure function of (workload, seed), equal in every round.
SIM_FIGURES = ("completed", "measured_cmds", "sim_throughput_tps",
               "sim_latency_p50_ms", "sim_latency_p999_ms")
ROUND_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds perfbench/ (incremental); returns the binary."""
    src = ROOT / "src"
    if not src.is_dir() or not any(src.rglob("*.cpp")):
        fail(f"no program sources under {src}; run from a full checkout")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    source = f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}\n"
    if cache.exists() and source not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir)])
    steps.append(["cmake", "--build", str(bdir), "-j4"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {p.returncode}")
    binary = bdir / "perfbench_workload"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_round(binary, workload, seed, mode, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic_ns()
    cmd += ["--t0-ns", str(t0)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail(f"{workload} round exited {p.returncode}")
    return json.loads(lines[-1])


def sim_mismatch(rounds):
    """Names a simulated figure that differs between rounds, or None."""
    for key in SIM_FIGURES:
        if len({r[key] for r in rounds}) > 1:
            return key
    return None


def report(rounds, metrics):
    problems = [f for r in rounds for f in r["failures"]]
    mismatch = sim_mismatch(rounds)
    if mismatch:
        problems.append(f"{mismatch} differs between rounds of one seed")
    for p in problems[:10]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems and all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def measure(binary, workload, seed, seconds):
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        r = run_round(binary, workload, seed, "plain")
        rounds.append(r)
        print(json.dumps(r))
    first = rounds[0]
    metrics = {}
    for m in json.loads(SPEC_FILE.read_text())["end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in SIM_FIGURES:
            value = first[name]
        else:
            value = statistics.median(r[name] for r in rounds)
        metrics[name] = {"value": value, "unit": unit}
    return report(rounds, metrics)


def trace(binary, workload, seed, seconds):
    spans_dir = build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        spans = spans_dir / f"{workload}-seed{seed}.jsonl" if not rounds else None
        r = run_round(binary, workload, seed, "traced", spans)
        rounds.append(r)
        print(json.dumps(r))
    metrics = {}
    for m in json.loads(SPEC_FILE.read_text())["per_layer"]:
        values = [r["layers"][m["name"]] for r in rounds]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(f"perfbench: sampled spans in {spans_dir}", file=sys.stderr)
    return report(rounds, metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"], cwd=ROOT).returncode)
    if args.workload is None or args.seed is None or args.seed < 0:
        ap.error("--workload and a non-negative --seed are required")
    if args.trace:
        result = trace(binary, args.workload, args.seed, args.seconds)
    else:
        result = measure(binary, args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
