"""Golden reports: `check --json --seed 0` and `oracle --json` output pinned by SHA-256.

Covers every `check` property and every `oracle` target on every
oracle-scale corpus instance plus two rational inputs, so a refactor of the
analysis, bimodule or linear-algebra layers cannot change a single report
byte unnoticed.  Three corrupted files are pinned for `valid` alone, so the
validity scan keeps naming the same first failure.  Each entry of `golden_reports.json` is keyed
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

from gradedrings.builders import full_matrix_algebra, galois_skew_example, group_algebra, m3_example
from gradedrings.cli import ORACLE_WHATS, PROPERTIES, main
from gradedrings.corpus import oracle_scale_corpus
from gradedrings.groups import cyclic_group
from gradedrings.linalg import GF, RATIONALS
from gradedrings.serialize import algebra_to_obj, save_algebra

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")
REPORTS = PROPERTIES + tuple(f"oracle-{what}" for what in ORACLE_WHATS)


def instances() -> dict:
    out = {inst.name: inst.alg for inst in oracle_scale_corpus()}
    out["m3-q"] = m3_example(RATIONALS)
    out["q-z3"] = group_algebra(RATIONALS, cyclic_group(3))
    return out


def corrupted() -> dict:
    """Invalid files as JSON objects: a broken product, unit or associativity."""
    flipped = algebra_to_obj(galois_skew_example(2, 2))
    flipped["structure"][0][4] = [0, 1]  # b_{0,0} * b_{0,0}: 1 -> the generator of GF(4)
    broken_unit = algebra_to_obj(m3_example(GF(2)))
    broken_unit["unit"] = [1, 0, 1, 0, 0]  # e11 + e22, without e33
    wrong_product = algebra_to_obj(full_matrix_algebra(RATIONALS, 3))
    row = next(r for r in wrong_product["structure"] if r[:4] == [0, 5, 0, 6])
    row[4][3] = "2/1"  # e23 * e31 = 2 e21
    return {
        "galois-2-2-flipped": flipped,
        "m3-gf2-broken-unit": broken_unit,
        "m3-q-wrong-product": wrong_product,
    }


INSTANCES = instances()
CORRUPTED = corrupted()
CASES = [(name, prop) for name in INSTANCES for prop in REPORTS] + [
    (name, "valid") for name in CORRUPTED
]


def write_inputs(root: str) -> dict:
    """Write every instance and corrupted file under root; name -> path."""
    paths = {}
    for name, alg in INSTANCES.items():
        paths[name] = os.path.join(root, f"{name}.json")
        save_algebra(alg, paths[name])
    for name, obj in CORRUPTED.items():
        paths[name] = os.path.join(root, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return paths


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
    return write_inputs(str(tmp_path_factory.mktemp("golden")))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{n}/{p}" for n, p in CASES)


@pytest.mark.parametrize("name,prop", CASES, ids=[f"{n}/{p}" for n, p in CASES])
def test_golden_report(name, prop, golden, files):
    rc, stdout, stderr = run_report(files[name], prop)
    want = golden[f"{name}/{prop}"]
    got = {"exit": rc, "sha256": digest(stdout, stderr)}
    assert got == want, f"report changed:\nexit {rc}\n{stdout}{stderr}"


def test_crossed_product_exits_on_corrupted_files(files):
    # The unit search runs on unchecked input, so a corrupted file ends in a
    # verdict or in an internal inconsistency (exit 4), pinned here as it
    # stands; checking validity first would make every one of them exit 2.
    got = {name: run_report(files[name], "crossed-product")[0] for name in CORRUPTED}
    assert got == {"galois-2-2-flipped": 4, "m3-gf2-broken-unit": 1, "m3-q-wrong-product": 0}


def regenerate() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as root:
        paths = write_inputs(root)
        for name, prop in CASES:
            rc, stdout, stderr = run_report(paths[name], prop)
            table[f"{name}/{prop}"] = {"exit": rc, "sha256": digest(stdout, stderr)}
    with open(DATA, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} reports to {DATA}\n")


if __name__ == "__main__":
    regenerate()
