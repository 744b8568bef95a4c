#!/usr/bin/env python3
"""Digest every benchmark job's report, or compare two digest files.

    python3 scripts/report_digests.py --out digests.json
    python3 scripts/report_digests.py --compare before.json after.json

The first form runs every job of the three benchmark workloads (ladder-gfp,
ladder-q, corpus-cli) once, with the job lists of `perfbench/jobs.py` and
`check --seed 0`, and writes one JSON object:

    {"<workload>:<instance>/<property>": [exit code, sha256(stdout "\\0" stderr)]}

It imports the package from the `src/` of the checkout the script sits in,
so running the script of two checkouts digests two versions of the code.
The second form lists the keys whose entries differ, or that only one file
has, then each key of both files whose exit code differs, as
`key: exit A -> B`, and exits 1 if any key differs.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

sys.dont_write_bytecode = True  # leave no cache files in the checkout
import jobs  # noqa: E402  (perfbench/jobs.py)
from gradedrings import cli  # noqa: E402


def digest(stdout: str, stderr: str) -> str:
    return hashlib.sha256((stdout + "\0" + stderr).encode("utf-8")).hexdigest()


def run_job(argv: list):
    """[exit code, digest] of one in-process command line call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a result to compare, not a stop
            rc = f"raised {type(exc).__name__}: {exc}"
    return [rc, digest(out.getvalue(), err.getvalue())]


def digests() -> dict:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in jobs.WORKLOADS:
            instances, job_list = jobs.workload(name)
            paths = jobs.write_inputs(instances, os.path.join(tmp, name))
            for job in job_list:
                table[f"{name}:{jobs.job_key(job)}"] = run_job(jobs.argv_for(job, paths, 0))
    return table


def compare(before: dict, after: dict) -> list:
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def exit_changes(before: dict, after: dict) -> list:
    """(key, exit code before, exit code after) for each key of both files
    whose exit code differs."""
    both = sorted(before.keys() & after.keys())
    return [(k, before[k][0], after[k][0]) for k in both if before[k][0] != after[k][0]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the digests here instead of to stdout")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = ap.parse_args(argv)
    if args.compare:
        tables = []
        for path in args.compare:
            with open(path, "r", encoding="utf-8") as fh:
                tables.append(json.load(fh))
        differ, changed = compare(*tables), exit_changes(*tables)
        for key in differ:
            print(key)
        for key, before, after in changed:
            print(f"{key}: exit {before} -> {after}")
        total = len(tables[0].keys() | tables[1].keys())
        print(f"{len(differ)} of {total} keys differ, {len(changed)} in exit code")
        return 1 if differ else 0
    text = json.dumps(digests(), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
