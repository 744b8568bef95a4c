"""Golden reports: `check --json --seed 0` and `oracle --json` output pinned by SHA-256.

Covers every `check` property and every `oracle` target on every
oracle-scale corpus instance plus two rational inputs, so a refactor of the
analysis, bimodule or linear-algebra layers cannot change a single report
byte unnoticed.  Each entry of `golden_reports.json` is keyed
`<instance>/<property>` (or `<instance>/oracle-<target>`) and holds the exit
code and the SHA-256 of stdout followed by stderr.

Regenerate the data file (only when a report change is intended):

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from gradedrings.builders import group_algebra, m3_example
from gradedrings.cli import ORACLE_WHATS, PROPERTIES, main
from gradedrings.corpus import oracle_scale_corpus
from gradedrings.groups import cyclic_group
from gradedrings.linalg import RATIONALS
from gradedrings.serialize import save_algebra

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")
REPORTS = PROPERTIES + tuple(f"oracle-{what}" for what in ORACLE_WHATS)


def instances() -> dict:
    out = {inst.name: inst.alg for inst in oracle_scale_corpus()}
    out["m3-q"] = m3_example(RATIONALS)
    out["q-z3"] = group_algebra(RATIONALS, cyclic_group(3))
    return out


INSTANCES = instances()
CASES = [(name, prop) for name in INSTANCES for prop in REPORTS]


def run_report(path: str, prop: str):
    """(exit code, stdout, stderr) of one `check --json --seed 0` or `oracle --json` call."""
    if prop.startswith("oracle-"):
        argv = ["oracle", path, "--what", prop[len("oracle-"):], "--json"]
    else:
        argv = ["check", path, "--property", prop, "--json", "--seed", "0"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def digest(stdout: str, stderr: str) -> str:
    return hashlib.sha256((stdout + "\0" + stderr).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(DATA, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, alg in INSTANCES.items():
        paths[name] = str(root / f"{name}.json")
        save_algebra(alg, paths[name])
    return paths


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{n}/{p}" for n, p in CASES)


@pytest.mark.parametrize("name,prop", CASES, ids=[f"{n}/{p}" for n, p in CASES])
def test_golden_report(name, prop, golden, files):
    rc, stdout, stderr = run_report(files[name], prop)
    want = golden[f"{name}/{prop}"]
    got = {"exit": rc, "sha256": digest(stdout, stderr)}
    assert got == want, f"report changed:\nexit {rc}\n{stdout}{stderr}"


def regenerate() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as root:
        for name, alg in INSTANCES.items():
            path = os.path.join(root, f"{name}.json")
            save_algebra(alg, path)
            for prop in REPORTS:
                rc, stdout, stderr = run_report(path, prop)
                table[f"{name}/{prop}"] = {"exit": rc, "sha256": digest(stdout, stderr)}
    with open(DATA, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} reports to {DATA}\n")


if __name__ == "__main__":
    regenerate()
