#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/repeat.py --workload ladder-q --seeds 1-10
    python3 perfbench/repeat.py --workload corpus-cli --seeds 1-5 --seconds 20

Each run is a fresh `run.py --trace 0` process; `--seconds` defaults to
BENCHMARK.json's `run_seconds`.  For every metric this prints the median
of the runs, the first and third quartiles (statistics.quantiles, n=4)
and the spread: the distance between the quartiles over the median.  The
last line is the summary as JSON.  Exit status is 1 if any run fails or
reports `correct: false`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def parse_seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=run_seconds())
    args = ap.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, args.seconds, trace=0)
        results.append(res)
        brief = ", ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if k.endswith("_s")
        )
        print(f"seed {seed}: correct={res['correct']} {brief}", flush=True)
    summary = summarize(results)
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, s in summary.items():
        print(
            f"{name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
            f"{s['spread']:8.4f}"
        )
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
