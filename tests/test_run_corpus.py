"""`scripts/run_corpus.py` finds no disagreement.

The script is the one place where `subring_correspondence` is compared
with `subring_oracle`, next to the controlled and ideal cross-checks on
every corpus instance, so it runs here as a user would run it.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_corpus_sweep_agrees_with_the_oracles():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_corpus.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 disagreements" in done.stdout
