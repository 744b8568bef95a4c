"""`scripts/report_digests.py --compare`: its listing, and no bytecode caches.

Caches under `src/` make a checkout's package import faster than a fresh
one's, which skews a comparison of benchmark set-up times between two
checkouts.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_compare_writes_no_bytecode(tmp_path):
    for part in ("src", "scripts", "perfbench"):
        shutil.copytree(
            os.path.join(ROOT, part), tmp_path / part,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    table = {"corpus-cli:gf2-z2/simple": [0, "0" * 64]}
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(table), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, "scripts/report_digests.py", "--compare", "a.json", "b.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "0 of 1 keys differ" in done.stdout
    caches = [root for root, dirs, _ in os.walk(tmp_path) if "__pycache__" in dirs]
    assert caches == []


def test_compare_names_the_changed_exit_codes(tmp_path):
    before = {
        "corpus-cli:gf2-z2/simple": [0, "0" * 64],
        "corpus-cli:gf2-z2/valid": [0, "1" * 64],
        "ladder-gfp:m3-gf2/simple": [1, "2" * 64],
    }
    after = dict(before)
    after["corpus-cli:gf2-z2/valid"] = [0, "3" * 64]  # the report bytes alone
    after["ladder-gfp:m3-gf2/simple"] = [3, "4" * 64]  # the verdict too
    for name, table in (("a.json", before), ("b.json", after)):
        (tmp_path / name).write_text(json.dumps(table), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "report_digests.py"), "--compare", "a.json", "b.json"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "corpus-cli:gf2-z2/valid",
        "ladder-gfp:m3-gf2/simple",
        "ladder-gfp:m3-gf2/simple: exit 1 -> 3",
        "2 of 3 keys differ, 1 in exit code",
    ]
