"""`scripts/bench_json.py` writes repeat.py's summaries as BENCH files.

Fabricated run results go through `perfbench/repeat.py`'s summary and the
script's writer; no benchmark is run.
"""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "bench_json", os.path.join(ROOT, "scripts", "bench_json.py")
)
bench_json = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_json)


def _runs(batch_values, rss_values):
    return [
        {"metrics": {"batch_s": {"unit": "s", "value": b}, "peak_rss_mb": {"unit": "MB", "value": r}}}
        for b, r in zip(batch_values, rss_values)
    ]


def test_record_keeps_median_quartiles_and_values(tmp_path):
    summaries = {
        "corpus-cli": bench_json.repeat.summarize(_runs([2.0, 2.4, 2.2, 2.6, 2.8], [60, 61, 62, 63, 64])),
        "ladder-q": bench_json.repeat.summarize(_runs([0.9, 0.7, 0.8, 1.0, 0.6], [30, 30, 30, 30, 30])),
    }
    record = bench_json.bench_record(
        summaries, commit="abc123", python="3.11.7", seeds=[1, 2, 3, 4, 5], seconds=30.0
    )
    path = tmp_path / "BENCH_x.json"
    bench_json.write_bench(str(path), record)
    back = json.loads(path.read_text(encoding="utf-8"))
    assert back == record
    assert back["commit"] == "abc123" and back["python"] == "3.11.7"
    assert back["seeds"] == [1, 2, 3, 4, 5] and back["run_seconds"] == 30.0
    batch = back["workloads"]["corpus-cli"]["batch_s"]
    assert batch["unit"] == "s"
    assert batch["median"] == pytest.approx(2.4)
    assert batch["q1"] <= batch["median"] <= batch["q3"]
    assert batch["values"] == [2.0, 2.4, 2.2, 2.6, 2.8]
    assert back["workloads"]["ladder-q"]["peak_rss_mb"]["median"] == 30
    assert set(batch) == {"unit", "median", "q1", "q3", "values"}


def test_record_needs_three_runs():
    two = {"ladder-q": bench_json.repeat.summarize(_runs([0.9, 0.7], [30, 31]))}
    with pytest.raises(ValueError, match="at least 3"):
        bench_json.bench_record(two, commit="c", python="3", seeds=[1, 2], seconds=1.0)
