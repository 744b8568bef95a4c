"""The benchmark's tracer patches package functions by name; keep them there.

`perfbench/tracing.py` lists in `SPANNED` and `COUNTED` the functions and
methods it wraps for a traced run.  A rename or deletion in the package
would make `perfbench/run.py --trace 1` crash, so every listed name must
still resolve.
"""
import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [
        (module, path)
        for table in (mod.SPANNED, mod.COUNTED)
        for module, paths in table.items()
        for path in paths
    ]


HOOKS = _tables()


@pytest.mark.parametrize("module,path", HOOKS, ids=[f"{m}.{p}" for m, p in HOOKS])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"gradedrings.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"gradedrings.{module}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)
