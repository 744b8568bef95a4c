#!/usr/bin/env python3
"""Smoke test of the benchmark itself: check seeds, traced runs, metric names.

    python3 perfbench/smoke.py

For every workload it

- runs one pass with each of two check seeds (the `--seed` given to
  `gradedrings check`) and fails if any job fails its output check or if
  a job's exit code or verdict differs between the two seeds; times may
  differ;
- runs `run.py --trace 1`, which compares the report bytes of an untraced
  and a traced pass, and fails if that run is not correct;

and, over all workloads, fails if a per-layer metric reads zero on every
workload (how a wrapper that was not rebound in some module would show;
`cli.exit.3` is exempt, since no job should end inconclusive), or if the
metric names and units differ from those BENCHMARK.json lists.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from repeat import ROOT, run_once  # noqa: E402
from run import END_TO_END_UNITS, Bench, Checker, Speedometer  # noqa: E402

EXPECTED_ZERO = {"cli.exit.3"}
# the two `--seed` values given to `gradedrings check`, and the traced run's seed
CHECK_SEEDS = (1, 2)
TRACE_SEED = 1


def verdicts(workload: str, check_seed: int):
    """({job: (exit code, verdict)}, failure reasons) of one pass at a check seed."""
    speedometer = Speedometer()
    speedometer.start()
    try:
        _, bench = Bench.setup(speedometer, 1, workload=workload, check_seed=check_seed)
        checker = Checker(bench, cross_check=workload == "corpus-cli")
        _, results = bench.run_pass()
    finally:
        speedometer.stop()
    checker.check_pass(results)
    out = {}
    for job, (_, rc, stdout, _) in results.items():
        verdict = json.loads(stdout).get("verdict") if rc in (0, 1, 3) else None
        out[jobs.job_key(job)] = (rc, verdict)
    return out, checker.reasons


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END_UNITS:
        problems.append("run.py end-to-end metrics differ from BENCHMARK.json")

    seen_nonzero = set()
    for workload in jobs.WORKLOADS:
        runs = []
        for seed in CHECK_SEEDS:
            got, reasons = verdicts(workload, seed)
            problems += [f"{workload} check seed {seed}: {r}" for r in reasons]
            runs.append(got)
        differ = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
        if differ:
            problems.append(f"{workload}: verdicts differ between check seeds on {differ}")
        print(f"{workload}: {len(runs[0])} jobs, {len(differ)} differ between check seeds "
              f"{CHECK_SEEDS[0]} and {CHECK_SEEDS[1]}", flush=True)

        res = run_once(workload, TRACE_SEED, 0, trace=1)
        if not res["correct"]:
            problems.append(f"{workload} traced run: {res['failed']} failed job executions")
        if {k: v["unit"] for k, v in res["metrics"].items()} != per_layer:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        seen_nonzero |= {k for k, v in res["metrics"].items() if v["value"]}
        print(f"{workload}: traced run correct={res['correct']}", flush=True)

    zero = sorted(set(per_layer) - seen_nonzero - EXPECTED_ZERO)
    if zero:
        problems.append(f"per-layer metrics zero on every workload: {zero}")
    else:
        print(f"every per-layer metric but {sorted(EXPECTED_ZERO)} is nonzero somewhere")
    for p in problems:
        print("SMOKE FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
