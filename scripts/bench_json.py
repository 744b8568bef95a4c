#!/usr/bin/env python3
"""Write the benchmark's spread per workload to BENCH_<label>.json.

    python3 scripts/bench_json.py --label 9427a5b --seeds 1-3

For each of the three workloads this makes `perfbench/repeat.py`'s runs
(one fresh `run.py --trace 0` process per seed, for BENCHMARK.json's
`run_seconds`) and keeps from its summary, for every metric, the unit,
the median, the first and third quartiles and the values.  The file also
holds the Python version, the commit (`git rev-parse HEAD` of the
checkout), the seeds and the run seconds.  It is written to the root of
the checkout.  At least three seeds are needed, so that the quartiles
mean something.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import repeat  # noqa: E402  (perfbench/repeat.py)

WORKLOADS = ("ladder-gfp", "ladder-q", "corpus-cli")
MIN_RUNS = 3


def summary_of(workload: str, seeds: list, seconds: float) -> dict:
    """repeat.py's summary of one run per seed of the workload."""
    results = [repeat.run_once(workload, seed, seconds, trace=0) for seed in seeds]
    wrong = [seed for seed, r in zip(seeds, results) if not r["correct"]]
    if wrong:
        raise RuntimeError(f"{workload}: the runs at seeds {wrong} report correct: false")
    return repeat.summarize(results)


def bench_record(summaries: dict, *, commit: str, python: str, seeds: list, seconds: float) -> dict:
    """The BENCH file's content from repeat.py summaries, one per workload."""
    if len(seeds) < MIN_RUNS:
        raise ValueError(f"{len(seeds)} runs per workload; at least {MIN_RUNS} are needed")
    workloads = {
        workload: {
            name: {key: s[key] for key in ("unit", "median", "q1", "q3", "values")}
            for name, s in summary.items()
        }
        for workload, summary in summaries.items()
    }
    return {
        "commit": commit,
        "python": python,
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": workloads,
    }


def write_bench(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seeds", default="1-3", help="e.g. 1-3 or 3,5,8")
    args = ap.parse_args(argv)

    seeds, seconds = repeat.parse_seeds(args.seeds), repeat.run_seconds()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    summaries = {}
    for workload in WORKLOADS:
        summaries[workload] = summary_of(workload, seeds, seconds)
        print(f"{workload}: batch_s median {summaries[workload]['batch_s']['median']:.4g}", flush=True)
    record = bench_record(
        summaries, commit=commit, python=platform.python_version(), seeds=seeds, seconds=seconds
    )
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    write_bench(path, record)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
