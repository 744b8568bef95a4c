"""Per-layer tracing of gradedrings from outside the package.

`Tracer.install()` wraps the package's public functions after import and
rebinds each wrapper in every gradedrings module that imported the name
(`from .linalg import nullspace` copies the function into the importing
module, so patching `linalg` alone would miss those calls).  Methods are
patched on their class.  `uninstall()` puts the originals back.

Two kinds of wrapper:

- spans, at the coarse boundaries job -> cli -> analysis/oracle ->
  bimodule -> linalg.rref/nullspace/solve.  Each span records its parent,
  so a module's self time is its span time minus its child spans.  Spans
  are kept in memory and written out once, by `write_spans`.
- counters, on leaf calls too frequent for a span (`Field.coerce`,
  `Matrix.apply`, `Matrix.mul`, `Element.__mul__`, `EchelonBasis.add`,
  `projective_vectors`, `subspace_sum`).

Inclusive time (`<module>.<function>.s`) counts only the outermost call of
a function, so recursion is not counted twice.

Metric names are `<module>.<function>.<kind>`, where kind is `calls`, `s`
or a stated count or ratio, and `<module>.self_s` is the module's span
time minus its child spans.  Besides `.calls`/`.s` of every spanned
function: `cli.exit.0` to `cli.exit.3`, `bimodule.is_simple.trials`,
`bimodule.is_simple.dense_envelope_ratio` (share of `is_simple` verdicts
decided by the dense envelope), `bimodule.envelope.rank_sum`,
`bimodule.hom_space.dim_sum`, `linalg.EchelonBasis.add.accept_ratio` and
the leaf counts above; run.py adds `trace.overhead_ratio`, the traced
pass's time over the untraced pass's.  Counts repeat exactly from run to
run, because the check seed is fixed.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

ANALYSIS_ENTRY_POINTS = (
    "check_valid",
    "check_strongly_graded",
    "check_nondegenerate",
    "check_centralizer_condition",
    "check_graded_simple",
    "check_simple",
    "check_controlled",
    "detect_crossed_product",
    "check_picard_injective",
    "check_necessary_conditions",
    "check_crossed_controlled",
    "subring_correspondence",
)

# module -> attribute paths that get a span ("Class.method" for methods)
SPANNED = {
    "cli": ("main", "emit_report"),
    "serialize": ("load_algebra",),
    "analysis": ANALYSIS_ENTRY_POINTS,
    "oracle": ("controlled_oracle", "enumerate_sub_bimodules", "ideal_oracle", "subring_oracle"),
    "bimodule": (
        "is_simple",
        "envelope",
        "spin",
        "hom_space",
        "are_isomorphic_simple",
        "bimodules_isomorphic",
        "rational_eigenvalues",
        "find_invertible_combo",
    ),
    "algebra": (
        "validate_algebra",
        "GradedAlgebra.flat_left_ops",
        "GradedAlgebra.flat_right_ops",
        "GradedAlgebra.component_ops",
    ),
    "linalg": ("rref", "nullspace", "solve"),
}

# module -> attribute paths that only count calls
COUNTED = {
    "algebra": ("Element.__mul__",),
    "linalg": ("Matrix.mul", "Matrix.apply", "Field.coerce", "EchelonBasis.add", "subspace_sum"),
}

# the benchmark's own span around each job
JOB = "bench.job"


class Tracer:
    """Spans, counts and return-value metrics of one traced pass."""

    def __init__(self):
        self.names = [JOB]
        self.index = {JOB: 0}
        self.calls = [0]
        self.incl = [0.0]
        self.depth = [0]
        self.self_time = {}
        self.extra = {}  # metric name -> number, from return values
        # span columns: id is the position; parent -1 for a root
        self.parent = array("q")
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []  # [span id, time spent in child spans]
        self._patches = []

    # --- recording --------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.depth.append(0)
        return self.index[name]

    def span(self, name: str, fn, on_return=None):
        """fn wrapped in a span named `<module>.<function>`."""
        nid = self._name(name)
        module = name.split(".", 1)[0]
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tr.start)
            stack = tr._stack
            tr.parent.append(stack[-1][0] if stack else -1)
            tr.name_of.append(nid)
            tr.start.append(0.0)
            tr.end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            tr.calls[nid] += 1
            tr.depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.depth[nid] -= 1
                dur = t1 - t0
                tr.start[sid] = t0
                tr.end[sid] = t1
                if tr.depth[nid] == 0:
                    tr.incl[nid] += dur
                tr.self_time[module] = tr.self_time.get(module, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counter(self, name: str, fn, on_return=None):
        nid = self._name(name)
        calls = self.calls

        if on_return is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                result = fn(*args, **kwargs)
                on_return(result)
                return result

        return wrapper

    def bump(self, metric: str, by=1) -> None:
        self.extra[metric] = self.extra.get(metric, 0) + by

    def job(self, fn, *args):
        """Run fn(*args) inside the benchmark's job span."""
        return self.span(JOB, fn)(*args)

    # --- patching ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` by `wrapper` wherever a gradedrings module holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gradedrings" or modname.startswith("gradedrings.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules[f"gradedrings.{module}"]
        name = f"{module}.{path}"
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(name, original))
        else:
            original = getattr(mod, path)
            self._rebind(original, make(name, original))

    def install(self) -> None:
        hooks = {
            "cli.main": lambda rc: self.bump(f"cli.exit.{rc}"),
            "bimodule.is_simple": self._on_is_simple,
            "bimodule.envelope": lambda res: self.bump("bimodule.envelope.rank_sum", res[0]),
            "bimodule.hom_space": lambda sub: self.bump("bimodule.hom_space.dim_sum", sub.dim),
            "linalg.EchelonBasis.add": lambda added: self.bump(
                "linalg.EchelonBasis.add.accepted", bool(added)
            ),
        }
        for module, paths in SPANNED.items():
            for path in paths:
                self._patch(
                    module, path,
                    lambda name, fn: self.span(name, fn, hooks.get(name)),
                )
        for module, paths in COUNTED.items():
            for path in paths:
                self._patch(
                    module, path,
                    lambda name, fn: self.counter(name, fn, hooks.get(name)),
                )
        self._patch("linalg", "projective_vectors", self._yield_counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _on_is_simple(self, rep) -> None:
        self.bump("bimodule.is_simple.trials", rep.trials)
        self.bump("bimodule.is_simple.dense_envelope", rep.method == "dense-envelope")

    def _yield_counter(self, name, gen_fn):
        nid = self._name(name)
        calls = self.calls

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for v in gen_fn(*args, **kwargs):
                calls[nid] += 1
                yield v

        return wrapper

    # --- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.index[name]] if name in self.index else 0

    def metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit)."""
        out = {}
        for module, paths in SPANNED.items():
            for path in paths:
                name = f"{module}.{path}"
                nid = self.index[name]
                out[name + ".calls"] = (self.calls[nid], "count")
                out[name + ".s"] = (self.incl[nid], "s")
        for module in SPANNED:
            out[module + ".self_s"] = (self.self_time.get(module, 0.0), "s")
        for module, paths in COUNTED.items():
            for path in paths:
                out[f"{module}.{path}.calls"] = (self.count(f"{module}.{path}"), "count")
        out["linalg.projective_vectors.yielded"] = (
            self.count("linalg.projective_vectors"), "count"
        )
        for rc in range(4):
            out[f"cli.exit.{rc}"] = (self.extra.get(f"cli.exit.{rc}", 0), "count")
        for metric in (
            "bimodule.is_simple.trials",
            "bimodule.envelope.rank_sum",
            "bimodule.hom_space.dim_sum",
        ):
            out[metric] = (self.extra.get(metric, 0), "count")
        out["bimodule.is_simple.dense_envelope_ratio"] = (
            _ratio(self.extra.get("bimodule.is_simple.dense_envelope", 0),
                   self.count("bimodule.is_simple")),
            "ratio",
        )
        out["linalg.EchelonBasis.add.accept_ratio"] = (
            _ratio(self.extra.get("linalg.EchelonBasis.add.accepted", 0),
                   self.count("linalg.EchelonBasis.add")),
            "ratio",
        )
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name_of[sid]]}\t"
                    f"{self.start[sid]:.7f}\t{self.end[sid]:.7f}\n"
                )


def _ratio(num, den) -> float:
    return num / den if den else 0.0
