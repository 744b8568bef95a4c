#!/usr/bin/env python3
"""Benchmark of the gradedrings command line, run from the root of a checkout.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --job mat5-q/simple --seed 1

Each job is one in-process `gradedrings.cli.main([...])` call on an algebra
file written during set-up, with stdout captured: the `check` or `oracle`
command a user runs.  Every job reloads its file, so the operators that
`GradedAlgebra` caches never carry over between jobs.  The load is a closed
loop: one client in one process, jobs one after another, no threads.

The workload seed shuffles the job list.  Every `check` job gets `--seed 0`,
the command line's default, so that every run does the same work: the
randomized checks take seed-dependent paths (`simple` on Q[Z3] takes 4 ms
at some seeds and 13 ms at others).  `smoke.py` runs the checks at other
seeds.  A run sets up SETUP_REPEATS times, then repeats passes over the job
list until the next pass would end after `--seconds` (at least one pass),
then prints one row per job, one row per metric and, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported at a reference machine speed.  The speed of a shared
machine drifts by up to 1.8x over seconds to minutes, and that drift, not
the program, set the run-to-run spread of plain wall times.  So a probe
(`Speedometer`) runs every PROBE_PERIOD_S seconds, from a SIGALRM handler
in the one process: a fixed arithmetic loop, a random walk over a 4 MB
buffer and a small elimination over the rationals, to cover the
interpreter, the caches, and allocation-heavy code much like the
program's.  (With the loop alone, the program slowed down by up to 30%
more than the probe when neighbours contended for the machine.)  Each
timed stretch of wall time, less the probe's own time, is scaled by the
mean of PROBE_REF_S over the probe's durations during it: the seconds the
stretch would have taken at the speed where the probe takes PROBE_REF_S.
The per-job rows print the plain wall times beside them.

`--trace 0` reports the end-to-end metrics, with times at the reference
speed:

- `batch_s`: one pass over the job list; median over the run's passes.
  In a pass, a job whose first run is shorter than SHORT_JOB_S runs
  SHORT_JOB_RUNS times in a row and counts with its median time;
- `job_s.p50`, `job_s.p90`, `job_s.geomean`: median, 90th percentile
  (inclusive) and geometric mean over the jobs of each job's median time
  across the passes.  The 90th percentile means most on `corpus-cli`,
  where 56 jobs lie beyond it.  Medians, not minima: a run makes as many
  passes as fit, and the minimum falls with the number of passes;
- `setup_s`: package import, building the instances with the package's
  builders and corpus, writing their files and loading reference.json,
  the median of SETUP_REPEATS set-ups;
- `peak_rss_mb`: `ru_maxrss` of the process;
- `ok_ratio`: job executions that passed every check, over those
  attempted (1 - failed_ratio, so that a correct run does not read 0);
- `decided_ratio`: executions that ended with exit 0 or 1, over those
  whose reference is 0 or 1; a speed-up that gives up (exit 3) shows here.

`--trace 1` runs one pass untraced and one traced (see tracing.py) and
reports the per-layer metrics of the traced pass; its spans go to
`.bench_out/`.  `--job` times one named job once, with `--seed` as its
check seed, for jobs too long to repeat, such as `mat5-q/simple`.

A job execution fails when it raises, when its exit code or verdict differs
from reference.json, when its report bytes differ from the run's first
pass or between its runs in a row, or, on `corpus-cli`, when a check
disagrees with the oracle of the same pass.  A ladder pass outlasts half of
a 30 s run, so a ladder run makes one pass and compares the report bytes
of its short jobs only; the ladders' traced runs compare every job's
across two passes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# set-up is timed this many times per run and setup_s is the median
SETUP_REPEATS = 5
# the speed probe, run every PROBE_PERIOD_S seconds: PROBE_LOOPS turns of an
# arithmetic loop, PROBE_STEPS steps of a random walk over a buffer of
# PROBE_BUFFER 8-byte entries (4 MB), and an elimination of PROBE_MATRIX;
# all three together take PROBE_REF_S at the reference speed.  A stretch of
# time is scaled by the probe's samples within it, widened to at least
# PROBE_MIN_SAMPLES
PROBE_PERIOD_S = 0.03
PROBE_LOOPS = 2000
PROBE_STEPS = 1000
PROBE_BUFFER = 1 << 19
PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(6)]
                for i in range(5)]
PROBE_REF_S = 0.0015
PROBE_MIN_SAMPLES = 5
# the --seed of every check job
CHECK_SEED = 0
# in a timed pass, a job whose first run takes less than SHORT_JOB_S runs
# SHORT_JOB_RUNS times in a row and counts with its median: a single run of
# a 15 ms job varied by 20% from run to run
SHORT_JOB_S = 0.05
SHORT_JOB_RUNS = 3

sys.path.insert(0, HERE)

import jobs  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "batch_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "job_s.geomean": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
}


class Failure(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def import_package():
    """Import gradedrings afresh from the checkout's src; returns its cli module."""
    if not os.path.isfile(os.path.join(SRC, "gradedrings", "cli.py")):
        raise Failure(f"no gradedrings package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "gradedrings" or m.startswith("gradedrings.")]:
        del sys.modules[name]
    cli = importlib.import_module("gradedrings.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise Failure(f"imported gradedrings from {cli.__file__}, not from {SRC}")
    return cli


def probe_loop() -> None:
    counts = {}
    for i in range(PROBE_LOOPS):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7


def probe_walk(buffer, at: int) -> int:
    """PROBE_STEPS steps of a full-period random walk over the buffer; returns the end."""
    mask = len(buffer) - 1
    for _ in range(PROBE_STEPS):
        at = (at * 1103515245 + 12345 + buffer[at]) & mask
    return at


def probe_eliminate() -> list:
    """Gauss-Jordan elimination of PROBE_MATRIX over the rationals."""
    m = [row[:] for row in PROBE_MATRIX]
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


class Speedometer:
    """Samples the machine's speed while the benchmark runs; see the module doc."""

    def __init__(self):
        self.speed = array("d")  # PROBE_REF_S over each sample's probe time
        self.stolen = 0.0  # seconds spent in the probe
        self.buffer = array("q", [0]) * PROBE_BUFFER
        self.at = 0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_loop()
        self.at = probe_walk(self.buffer, self.at)
        probe_eliminate()
        t1 = perf_counter()
        self.speed.append(PROBE_REF_S / (t1 - t0))
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return perf_counter(), self.stolen, len(self.speed)

    @staticmethod
    def wall(start, end) -> float:
        """Wall seconds between two marks, less the probe's own time."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def elapsed(self, start, end):
        """(wall seconds, seconds at the reference speed) between two marks.

        Both leave out the probe's own time.  Call it after later samples
        exist, so that a short stretch can borrow the samples that follow.
        """
        wall = self.wall(start, end)
        lo, hi, n = start[2], end[2], len(self.speed)
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < n):
            lo = max(lo - 1, 0)
            if hi - lo < PROBE_MIN_SAMPLES:
                hi = min(hi + 1, n)
        if hi == lo:
            raise Failure("the speed probe took no samples")
        return wall, wall * statistics.fmean(self.speed[lo:hi])


class Bench:
    """Set-up state of a run: the package, the input files, the references."""

    def __init__(self, cli, instances: dict, job_list: list, seed: int, check_seed: int,
                 speedometer: Speedometer):
        self.cli = cli
        self.speedometer = speedometer
        self.check_seed = check_seed
        self.dims = {name: alg.dim for name, alg in instances.items()}
        self.paths = jobs.write_inputs(instances, os.path.join(OUT, "inputs"))
        reference = jobs.load_reference()
        missing = [jobs.job_key(j) for j in job_list if jobs.job_key(j) not in reference]
        if missing:
            raise Failure(f"reference.json has no entry for {', '.join(missing[:5])}")
        self.reference = {j: reference[jobs.job_key(j)] for j in job_list}
        self.order = list(job_list)
        random.Random(seed).shuffle(self.order)

    @classmethod
    def setup(cls, speedometer, seed: int, workload=None, job=None, check_seed=CHECK_SEED):
        """(marks before and after, Bench): import, build and write the inputs, load references."""
        start = speedometer.mark()
        cli = import_package()
        if job is None:
            instances, job_list = jobs.workload(workload)
        else:
            instances, job_list = jobs.build_instances([job[0]]), [job]
        bench = cls(cli, instances, job_list, seed, check_seed, speedometer)
        return (start, speedometer.mark()), bench

    def run_job(self, job, tracer=None):
        """(marks before and after, exit code or a crash message, stdout, stderr) of one job."""
        argv = jobs.argv_for(job, self.paths, self.check_seed)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # untimed: the job starts from a collected heap, as in a fresh process
        start = self.speedometer.mark()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.job(self.cli.main, argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
        return (start, self.speedometer.mark()), rc, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None, repeat_short=False):
        """(wall time, {job: ((wall s, reference s), exit code, stdout, stderr)}) of one pass.

        The benchmark's own objects are frozen out of the collector first,
        so a job's collections scan only what the job made, whatever ran
        before it.  With `repeat_short`, short jobs run SHORT_JOB_RUNS times;
        a repeat whose exit code or report differs from the first run fails.
        """
        gc.collect()
        gc.freeze()
        t0 = perf_counter()
        runs = {}
        for job in self.order:
            runs[job] = [self.run_job(job, tracer)]
            marks, *_ = runs[job][0]
            if repeat_short and self.speedometer.wall(*marks) < SHORT_JOB_S:
                runs[job] += [self.run_job(job, tracer) for _ in range(SHORT_JOB_RUNS - 1)]
        wall = perf_counter() - t0
        results = {}
        for job, job_runs in runs.items():
            times = [self.speedometer.elapsed(*marks) for marks, *_ in job_runs]
            dt = tuple(statistics.median(t[i] for t in times) for i in (0, 1))
            _, rc, stdout, stderr = job_runs[0]
            if any(r[1:3] != (rc, stdout) for r in job_runs[1:]):
                rc = "exit code or report differs between runs in a row"
            results[job] = (dt, rc, stdout, stderr)
        return wall, results


class Checker:
    """Checks every job execution against the reference and the first pass."""

    def __init__(self, bench: Bench, cross_check: bool):
        self.bench = bench
        self.cross_check = cross_check
        self.first = {}  # job -> (exit code, stdout) of the first pass
        self.attempted = self.failed = 0
        self.decidable = self.decided = 0
        self.reasons = []

    def check_pass(self, results: dict) -> None:
        bad = {}
        for job, (_, rc, stdout, stderr) in results.items():
            expected = self.bench.reference[job]
            self.attempted += 1
            if expected in (0, 1):
                self.decidable += 1
                self.decided += rc in (0, 1)
            if isinstance(rc, str):
                bad[job] = rc
                continue
            reason = jobs.check_output(job, expected, rc, stdout, stderr)
            if reason is None and self.first.setdefault(job, (rc, stdout))[1] != stdout:
                reason = "report bytes differ from the first pass"
            if reason is not None:
                bad[job] = reason
        if self.cross_check:
            for name, dim in self.bench.dims.items():
                mine = {job: results[job] for job in results if job[0] == name}
                if any(job in bad for job in mine):
                    continue
                outputs = {job[1]: (rc, stdout) for job, (_, rc, stdout, _) in mine.items()}
                for prop, reason in jobs.oracle_cross_check(name, dim, outputs).items():
                    bad[(name, prop)] = "disagrees with the oracle: " + reason
        self.failed += len(bad)
        for job, reason in bad.items():
            if len(self.reasons) < 20:
                self.reasons.append(f"{jobs.job_key(job)}: {reason}")

    def ok_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted

    def decided_ratio(self) -> float:
        return self.decided / self.decidable if self.decidable else 1.0


def run_passes(bench: Bench, checker: Checker, seconds: float, tracer=None,
               repeat_short=False) -> dict:
    """Passes until the next one would end after `seconds` (at least one).

    Returns {job: [(wall s, reference s) per pass]}.
    """
    times = {job: [] for job in bench.order}
    t0 = perf_counter()
    while True:
        wall, results = bench.run_pass(tracer, repeat_short)
        for job, (dt, *_) in results.items():
            times[job].append(dt)
        checker.check_pass(results)
        if perf_counter() - t0 + wall > seconds:
            return times


def job_medians(times: dict) -> dict:
    """Each job's median time at the reference speed over the passes."""
    return {job: statistics.median(ref for _, ref in ts) for job, ts in times.items()}


def batch_median(times: dict) -> float:
    """Median over the passes of a pass's total time at the reference speed."""
    return statistics.median(map(sum, zip(*([ref for _, ref in ts] for ts in times.values()))))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(label: str, times: dict, checker: Checker, metrics: dict, out_name: str) -> None:
    """Print the per-job rows, the metric rows and the result line; keep a copy."""
    rows = []
    for job in sorted(times):
        rc, stdout = checker.first.get(job, (None, ""))
        rows.append({
            "workload": label,
            "instance": job[0],
            "property": job[1],
            "median_s": statistics.median(ref for _, ref in times[job]),
            "median_wall_s": statistics.median(wall for wall, _ in times[job]),
            "passes": len(times[job]),
            "exit": rc,
            "report_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        })
        print(f"job {label} {job[0]} {job[1]} {rows[-1]['median_s']:.4f} s "
              f"(wall {rows[-1]['median_wall_s']:.4f} s) exit {rc}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    for reason in checker.reasons:
        print("FAILED " + reason, file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, out_name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"jobs": rows, **result}, fh, indent=1)
    print(json.dumps(result))


def run_workload(speedometer: Speedometer, workload: str, seed: int, seconds: float) -> None:
    setups, bench = [], None
    for _ in range(SETUP_REPEATS):
        bench = None  # let the previous set-up's modules and instances go first
        gc.collect()
        marks, bench = Bench.setup(speedometer, seed, workload=workload)
        setups.append(marks)
    setups = [speedometer.elapsed(*marks)[1] for marks in setups]
    checker = Checker(bench, cross_check=workload == "corpus-cli")
    times = run_passes(bench, checker, seconds, repeat_short=True)
    per_job = list(job_medians(times).values())
    values = {
        "batch_s": batch_median(times),
        "job_s.p50": statistics.median(per_job),
        "job_s.p90": statistics.quantiles(per_job, n=10, method="inclusive")[8],
        "job_s.geomean": math.exp(statistics.fmean(math.log(t) for t in per_job)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": checker.ok_ratio(),
        "decided_ratio": checker.decided_ratio(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    emit(workload, times, checker, metrics, f"{workload}-seed{seed}")


def run_traced(speedometer: Speedometer, workload: str, seed: int) -> None:
    _, bench = Bench.setup(speedometer, seed, workload=workload)
    checker = Checker(bench, cross_check=workload == "corpus-cli")
    plain = batch_median(run_passes(bench, checker, 0))
    tracer = Tracer()
    tracer.install()
    try:
        times = run_passes(bench, checker, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (batch_median(times) / plain, "ratio")
    tracer.write_spans(os.path.join(OUT, f"{workload}-seed{seed}-spans.tsv"))
    emit(workload, times, checker, metrics, f"{workload}-seed{seed}-trace")


def run_one(speedometer: Speedometer, name: str, seed: int) -> None:
    instance, _, prop = name.partition("/")
    if name not in jobs.load_reference():
        raise Failure(f"unknown job {name!r}; see reference.json for the job names")
    marks, bench = Bench.setup(speedometer, seed, job=(instance, prop), check_seed=seed)
    checker = Checker(bench, cross_check=False)
    times = run_passes(bench, checker, 0)
    metrics = {
        "job_s": (times[(instance, prop)][0][1], "s"),
        "job_wall_s": (times[(instance, prop)][0][0], "s"),
        "setup_s": (speedometer.elapsed(*marks)[1], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    emit("one-shot", times, checker, metrics, f"one-shot-{instance}-{prop}-seed{seed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS)
    ap.add_argument("--job", help="time one job once, named <instance>/<property>")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if (args.workload is None) == (args.job is None):
        ap.error("give exactly one of --workload and --job")
    speedometer = Speedometer()
    speedometer.start()
    try:
        if args.job is not None:
            run_one(speedometer, args.job, args.seed)
        elif args.trace:
            run_traced(speedometer, args.workload, args.seed)
        else:
            run_workload(speedometer, args.workload, args.seed, args.seconds)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        speedometer.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
