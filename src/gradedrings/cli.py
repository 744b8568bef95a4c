"""Command line front end for graded algebra files.

Three subcommands: `build` writes an algebra file, `check` decides one
property of an algebra file, `oracle` runs the brute-force enumerations.
Exit codes follow one contract everywhere: 0 the property holds, 1 it
fails, 3 the check came back inconclusive, 2 for any usage, input, or
budget error, 4 when two procedures that must agree did not (an internal
inconsistency, which on valid input means a bug).  All output is
deterministic for a fixed --seed; the only environment variable consulted
is NO_COLOR.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from .algebra import GradedAlgebra
from .analysis import (
    CheckResult,
    check_centralizer_condition,
    check_controlled,
    check_crossed_controlled,
    check_graded_simple,
    check_necessary_conditions,
    check_nondegenerate,
    check_picard_injective,
    check_simple,
    check_strongly_graded,
    check_valid,
    detect_crossed_product,
    subring_correspondence,
)
from .bimodule import Verdict
from .builders import (
    crossed_product,
    galois_skew_example,
    group_algebra,
    m3_example,
    skew_group_ring,
)
from .errors import BudgetError, InternalInconsistency, InvalidInput
from .groups import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    klein_four_group,
    symmetric_group,
    trivial_group,
)
from .linalg import GF, RATIONALS, Field, Matrix
from .oracle import (
    controlled_oracle,
    enumerate_sub_bimodules,
    ideal_oracle,
    subring_oracle,
)
from .serialize import MAX_TOTAL_DIM, _decoded_vector, _Rationals, algebra_to_json, load_algebra

PROPERTIES = (
    "valid",
    "strong",
    "nondegenerate",
    "graded-simple",
    "simple",
    "controlled",
    "crossed-product",
    "centralizer",
    "picard-injective",
    "necessary",
    "crossed-controlled",
    "subrings",
)

ORACLE_WHATS = ("sub-bimodules", "subrings", "ideals", "controlled")

_EXIT_BY_VERDICT = {
    Verdict.TRUE: 0,
    Verdict.FALSE: 1,
    Verdict.INCONCLUSIVE: 3,
    Verdict.SKIPPED: 3,
}


# --------------------------------------------------------------------------
# argument parsing helpers
# --------------------------------------------------------------------------


def parse_field(text: str) -> Field:
    """'q' for the rationals, 'gf<p>' for a prime field."""
    t = text.strip().lower()
    if t in ("q", "qq", "rational", "rationals"):
        return RATIONALS
    if t.startswith("gf"):
        body = t[2:].strip("()")
        if body.isdigit():
            return GF(int(body))
    raise InvalidInput(f"cannot parse field {text!r}; use q or gf<p>")


def _atomic_group(tok: str) -> tuple:
    """(order, constructor) of one factor z<n>, v4, s<n> or trivial; nothing is built."""
    if tok in ("trivial", "1", "e"):
        return 1, trivial_group
    if tok == "v4":
        return 4, klein_four_group
    if tok[:1] in ("s", "z") and tok[1:].isdigit():
        try:
            n = int(tok[1:])
        except ValueError:  # digits int() refuses: too many, or not decimal
            raise InvalidInput(f"cannot read the size of group {tok[:16]!r}") from None
        if tok[0] == "z":
            return n, lambda: cyclic_group(n)
        # n! passes MAX_TOTAL_DIM long before n does, so cap n
        return math.factorial(min(n, MAX_TOTAL_DIM)), lambda: symmetric_group(n)
    raise InvalidInput(f"unknown group {tok!r}; use z<n>, v4, s<n>, or trivial")


def _group_atoms(text: str) -> list:
    """(order, constructor) of each factor of a group name; nothing is built.

    Names are z<n>, v4, s<n>, trivial, and products such as z2xz2; an
    empty factor, as in z2x or z2xxz3, is refused.
    """
    toks = text.strip().lower().split("x")
    if not all(toks):
        raise InvalidInput(f"cannot parse group {text!r}: empty factor")
    return [_atomic_group(tok) for tok in toks]


def parse_group(text: str) -> FiniteGroup:
    """Group names like z4, v4, s3, trivial, and products such as z2xz2."""
    atoms = _group_atoms(text)
    out = atoms[0][1]()
    for _, make in atoms[1:]:
        out = direct_product(out, make())
    return out


def group_order(text: str) -> int:
    """The order of the named group, read from its name alone."""
    return math.prod(order for order, _ in _group_atoms(text))


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _load_sigma(path: str, base: GradedAlgebra, group: FiniteGroup) -> list:
    """One automorphism matrix per group element, keyed by element name.

    The file maps each name to a row-major matrix over the base field;
    the identity element may be omitted and defaults to the identity map.
    """
    obj = _load_json_file(path)
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path}: expected an object mapping names to matrices")
    field = base.field
    d = base.dim
    rationals = _Rationals()
    out = []
    for g, name in enumerate(group.names):
        if name not in obj:
            if g == group.identity:
                out.append(Matrix.identity(field, d))
                continue
            raise InvalidInput(f"{path}: missing automorphism for {name!r}")
        rows = obj[name]
        if not isinstance(rows, list) or len(rows) != d or any(
            not isinstance(r, list) or len(r) != d for r in rows
        ):
            raise InvalidInput(f"{path}: automorphism for {name!r} must be a {d}x{d} matrix")
        out.append(Matrix(field, [_decoded_vector(field, r, rationals) for r in rows]))
    return out


def _load_alpha(path: str, base: GradedAlgebra, group: FiniteGroup) -> dict:
    """Cocycle values keyed by 'g,h' pairs of element names."""
    obj = _load_json_file(path)
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path}: expected an object mapping 'g,h' pairs to vectors")
    field = base.field
    index = {name: g for g, name in enumerate(group.names)}
    rationals = _Rationals()
    out = {}
    for key, vec in obj.items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise InvalidInput(f"{path}: bad cocycle key {key!r}; use 'g,h' element names")
        if not isinstance(vec, list) or len(vec) != base.dim:
            raise InvalidInput(
                f"{path}: cocycle value for {key!r} must be a list of {base.dim} scalars"
            )
        out[(index[parts[0]], index[parts[1]])] = _decoded_vector(field, vec, rationals)
    return out


# --------------------------------------------------------------------------
# report rendering
# --------------------------------------------------------------------------

_KEY_ORDER = (
    "check",
    "verdict",
    "method",
    "proof_scope",
    "detail",
    "count",
)


def _ordered_keys(obj: dict) -> list:
    front = [k for k in _KEY_ORDER if k in obj]
    rest = sorted(k for k in obj if k not in _KEY_ORDER)
    return front + rest


def _fmt_scalarish(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _render_lines(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in _ordered_keys(obj):
            v = obj[k]
            if isinstance(v, dict):
                if v:
                    out.append(f"{pad}{k}:")
                    _render_lines(v, indent + 1, out)
                else:
                    out.append(f"{pad}{k}: {{}}")
            elif isinstance(v, list):
                if v and not any(isinstance(x, (dict, list)) for x in v):
                    out.append(f"{pad}{k}: [" + ", ".join(_fmt_scalarish(x) for x in v) + "]")
                elif v:
                    out.append(f"{pad}{k}:")
                    _render_lines(v, indent + 1, out)
                else:
                    out.append(f"{pad}{k}: []")
            else:
                out.append(f"{pad}{k}: {_fmt_scalarish(v)}")
    else:  # a list holding a dict or a list: its parent renders a list of scalars inline
        for x in obj:
            if isinstance(x, list) and not any(isinstance(y, (dict, list)) for y in x):
                out.append(f"{pad}- [" + ", ".join(_fmt_scalarish(y) for y in x) + "]")
            elif isinstance(x, (dict, list)):
                out.append(pad + "-")
                _render_lines(x, indent + 1, out)
            else:
                out.append(f"{pad}- {_fmt_scalarish(x)}")


def _want_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _colorize(line: str) -> str:
    if not line.startswith("verdict: "):
        return line
    word = line.split(": ", 1)[1]
    code = {"true": "32", "false": "31"}.get(word, "33")
    return f"verdict: \x1b[{code}m{word}\x1b[0m"


def emit_report(obj: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return
    lines: list = []
    _render_lines(obj, 0, lines)
    color = _want_color()
    for line in lines:
        sys.stdout.write((_colorize(line) if color else line) + "\n")


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------


def _refuse_oversize(kind: str, total_dim: int) -> None:
    """Refuse a build whose output `load_algebra` would refuse, before building it."""
    if total_dim > MAX_TOTAL_DIM:
        raise InvalidInput(
            f"build {kind} would have total dimension {total_dim}, "
            f"over the limit of {MAX_TOTAL_DIM}"
        )


def cmd_build(args) -> int:
    kind = args.kind
    if kind == "group-algebra":
        _refuse_oversize(kind, group_order(args.group))
        alg = group_algebra(parse_field(args.field), parse_group(args.group))
    elif kind == "m3":
        alg = m3_example(parse_field(args.field))
    elif kind == "galois-skew":
        _refuse_oversize(kind, max(args.n, 0) ** 2)
        alg = galois_skew_example(args.p, args.n)
    elif kind in ("skew-group", "crossed-product"):
        base = load_algebra(args.base)
        _refuse_oversize(kind, base.dim * group_order(args.group))
        group = parse_group(args.group)
        sigma = _load_sigma(args.sigma, base, group)
        if kind == "skew-group":
            alg = skew_group_ring(base, group, sigma)
        else:
            alpha = _load_alpha(args.alpha, base, group) if args.alpha else None
            alg = crossed_product(base, group, sigma, alpha)
    text = algebra_to_json(alg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        names = "{" + ", ".join(alg.group.names) + "}"
        sys.stdout.write(f"wrote {args.out} ({alg.dim}-dimensional, group {names})\n")
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------


def run_check(alg: GradedAlgebra, prop: str, *, seed: int, budget: int) -> CheckResult:
    if prop == "valid":
        return check_valid(alg)
    if prop == "strong":
        return check_strongly_graded(alg)
    if prop == "nondegenerate":
        return check_nondegenerate(alg)
    if prop == "centralizer":
        return check_centralizer_condition(alg)
    if prop == "graded-simple":
        return check_graded_simple(alg, seed=seed, budget=budget)
    if prop == "simple":
        return check_simple(alg, seed=seed, budget=budget)
    if prop == "controlled":
        return check_controlled(alg, seed=seed, budget=budget)
    if prop == "crossed-product":
        return detect_crossed_product(alg, seed=seed, budget=budget)
    if prop == "picard-injective":
        return check_picard_injective(alg, seed=seed, budget=budget)
    if prop == "necessary":
        return check_necessary_conditions(alg, seed=seed, budget=budget)
    if prop == "crossed-controlled":
        return check_crossed_controlled(alg, seed=seed, budget=budget)
    if prop == "subrings":
        return subring_correspondence(alg, seed=seed, budget=budget)
    raise InvalidInput(f"unknown property {prop!r}")


def cmd_check(args) -> int:
    alg = load_algebra(args.path)
    report = run_check(alg, args.property, seed=args.seed, budget=args.budget)
    emit_report(report.to_json(), args.json)
    return _EXIT_BY_VERDICT[report.verdict]


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------


def _subspace_summary(subs) -> dict:
    counts = Counter(s.dim for s in subs)
    return {
        "count": len(subs),
        "dims": sorted(counts.elements()),
        "by_dim": {str(d): counts[d] for d in sorted(counts)},
    }


def cmd_oracle(args) -> int:
    alg = load_algebra(args.path)
    what = args.what
    if what == "controlled":
        verdict = controlled_oracle(alg, budget=args.budget)
        emit_report({"what": "controlled", "verdict": verdict}, args.json)
        return 0 if verdict else 1
    if what == "sub-bimodules":
        obj = {"what": "sub-bimodules"}
        obj.update(_subspace_summary(enumerate_sub_bimodules(alg, budget=args.budget)))
    elif what == "subrings":
        obj = {"what": "subrings"}
        obj.update(_subspace_summary(subring_oracle(alg, budget=args.budget)))
    elif what == "ideals":
        ring = ideal_oracle(alg, budget=args.budget)
        base = alg.identity_component_algebra()
        inner = ideal_oracle(base, budget=args.budget)
        obj = {
            "what": "ideals",
            "ring": {
                "count": len(ring),
                "ideals": [{"dim": s.dim, "graded": flag} for s, flag in ring],
            },
            "identity_component": {
                "count": len(inner),
                "ideals": [
                    {
                        "dim": s.dim,
                        "basis": [str(base.from_flat(row)) for row in s.basis.entries],
                    }
                    for s, _ in inner
                ],
            },
        }
    emit_report(obj, args.json)
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradedrings",
        description="Build, check, and brute-force graded algebra files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write an algebra file")
    b.add_argument("kind", choices=("group-algebra", "skew-group", "crossed-product", "galois-skew", "m3"))
    b.add_argument("--field", help="q or gf<p>")
    b.add_argument("--group", help="z<n>, v4, s<n>, trivial, or products like z2xz2")
    b.add_argument("--base", help="algebra file for the coefficient ring")
    b.add_argument("--sigma", help="JSON file of automorphism matrices, one per group element")
    b.add_argument("--alpha", help="JSON file of cocycle values keyed by 'g,h'")
    b.add_argument("--p", type=int, help="field characteristic for galois-skew")
    b.add_argument("--n", type=int, help="extension degree for galois-skew")
    b.add_argument("--out", help="output path; stdout when omitted")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="decide one property of an algebra file")
    c.add_argument("path")
    c.add_argument("--property", required=True, choices=PROPERTIES)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=65536)
    c.add_argument("--json", action="store_true", help="machine report instead of text")
    c.set_defaults(func=cmd_check)

    o = sub.add_parser("oracle", help="brute-force enumeration at tiny scale")
    o.add_argument("path")
    o.add_argument("--what", required=True, choices=ORACLE_WHATS)
    o.add_argument("--budget", type=int, default=10**6)
    o.add_argument("--json", action="store_true", help="machine report instead of text")
    o.set_defaults(func=cmd_oracle)
    return ap


def _missing(args, names) -> list:
    return [n for n in names if getattr(args, n.replace("-", "_"), None) in (None, "")]


def _validate_build_args(args) -> None:
    needs = {
        "group-algebra": ("field", "group"),
        "m3": ("field",),
        "galois-skew": ("p", "n"),
        "skew-group": ("base", "group", "sigma"),
        "crossed-product": ("base", "group", "sigma"),
    }[args.kind]
    missing = _missing(args, needs)
    if missing:
        raise InvalidInput(f"build {args.kind} needs --" + " --".join(missing))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "budget", 1) < 1:
        sys.stderr.write(f"error: --budget must be at least 1, got {args.budget}\n")
        return 2
    try:
        if args.command == "build":
            _validate_build_args(args)
        return args.func(args)
    except (InvalidInput, BudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
