"""`scripts/report_digests.py` leaves no bytecode caches in the checkout.

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
