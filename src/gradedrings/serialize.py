"""JSON persistence for graded algebras.

The on-disk format is deliberately sparse and diff-friendly:

    {
      "field": {"type": "Q"} | {"type": "GF", "p": 2},
      "group": {"names": ["0", "1"], "table": [[0, 1], [1, 0]]},
      "components": {"0": 5, "1": 4},
      "structure": [[g, i, h, j, [c0, c1, ...]], ...],
      "unit": [c0, ...],
      "meta": {...}          # optional, free-form
    }

Structure rows list the nonzero basis products b_{g,i} * b_{h,j} as
coefficient vectors over the target component R_{gh}; omitted rows mean the
product is zero.  Rows are emitted sorted by (g, i, h, j).  Rationals are
written as "num/den" strings so nothing ever passes through floats; GF(p)
scalars are plain integers in [0, p).

Loading reads the product table once.  `_structure_items` hands the
rows to the GradedAlgebra constructor as they are over GF(p), and over Q
decodes each row's rational strings as it is read; the constructor's one
row loop, which the builders use too, checks each row's shape, indices,
duplicates, length and scalars once and builds its sparse product in the
same pass (`Field.sparse`).  Each distinct rational string of a file
(structure and unit alike) goes through Fraction once, in a `_Rationals`
dict made for that one load.

Serialization is canonical: dumps(loads(text)) == text for any text this
module produced, which is what lets the CLI promise byte-identical output
for a fixed seed.
"""

import json
from fractions import Fraction

from .algebra import GradedAlgebra
from .errors import InvalidInput
from .groups import FiniteGroup
from .linalg import GF, Field

# Largest total dimension a file may declare.  GradedAlgebra stores only the
# nonzero products, but most checks build the flat operators: one n x n
# matrix per basis element, n^3 scalars in all.
MAX_TOTAL_DIM = 1024


def scalar_to_json(field: Field, x):
    """Encode one scalar: int for GF(p), "num/den" string for Q."""
    if field.p:
        return int(x)
    frac = Fraction(x)
    return f"{frac.numerator}/{frac.denominator}"


def _fraction(v: str) -> Fraction:
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational scalar {v!r}") from exc


class _Rationals(dict):
    """The rational strings of one file, each decoded by `_fraction` once, when first read.

    Made afresh for each file, so nothing is kept from one load to the next.
    """

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = _fraction(text)
        return value


def vector_to_json(field: Field, vec):
    return [scalar_to_json(field, c) for c in vec]


def _decoded_vector(field: Field, vec, rationals: _Rationals):
    """A coefficient vector of an algebra, sigma or alpha file, decoded but not checked.

    Over Q, the rational strings of a list become Fractions, read through
    rationals.  Everything else is passed on as it is, for the one check
    that follows: `Field.sparse` in the GradedAlgebra constructor, or
    `Field.vector` for its unit, in `Matrix` or in `GradedAlgebra.element`,
    after a shape check there or in `cli`.
    """
    if field.p or type(vec) is not list:
        return vec
    return [rationals[c] if type(c) is str else c for c in vec]


def _structure_items(field: Field, rows: list, rationals: _Rationals):
    """A file's structure rows [g, i, h, j, coeffs], for the GradedAlgebra constructor.

    Over GF(p) they are the file's rows as they are; over Q each row of
    five has its coefficients decoded as it is read.  The constructor
    checks every row, its shape included.
    """
    if field.p:
        return rows
    return (
        [row[0], row[1], row[2], row[3], _decoded_vector(field, row[4], rationals)]
        if type(row) is list and len(row) == 5
        else row
        for row in rows
    )


def _field_to_obj(field: Field) -> dict:
    if field.p:
        return {"type": "GF", "p": field.p}
    return {"type": "Q"}


def _field_from_obj(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidInput("field entry must be an object with a 'type'")
    if obj["type"] == "Q":
        return Field(0)
    if obj["type"] == "GF":
        p = obj.get("p")
        if not isinstance(p, int):
            raise InvalidInput("GF field entry needs an integer 'p'")
        return GF(p)
    raise InvalidInput(f"unknown field type {obj['type']!r}")


def algebra_to_obj(alg: GradedAlgebra) -> dict:
    names = alg.group.names
    if len(set(names)) != len(names):
        raise InvalidInput("group element names must be unique to serialize")
    obj = {
        "field": _field_to_obj(alg.field),
        "group": {
            "names": list(names),
            "table": [list(row) for row in alg.group.table],
        },
        "components": {names[g]: alg.comp_dims[g] for g in range(alg.group.order)},
        "structure": [
            [g, i, h, j, vector_to_json(alg.field, coeffs)]
            for (g, i, h, j), coeffs in alg.structure_items()
        ],
        "unit": vector_to_json(alg.field, alg.unit_coeffs),
    }
    if alg.meta:
        obj["meta"] = alg.meta
    return obj


def algebra_from_obj(obj) -> GradedAlgebra:
    if not isinstance(obj, dict):
        raise InvalidInput("algebra document must be a JSON object")
    try:
        field = _field_from_obj(obj["field"])
        gobj = obj["group"]
        names = gobj["names"]
        table = gobj["table"]
        comps = obj["components"]
        rows = obj["structure"]
        unit = obj["unit"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"algebra document is missing a required entry: {exc}") from exc
    if not isinstance(names, list) or not all(type(x) is str for x in names):
        raise InvalidInput("group names must be a list of strings")
    # sizes and indices are compared by type(), not isinstance(): bool and
    # float are refused rather than truncated to an int
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in table
    ):
        raise InvalidInput("Cayley table must be a list of rows of integer element indices")
    if not isinstance(rows, list):
        raise InvalidInput("structure must be a list of rows")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidInput("meta must be a JSON object")
    group = FiniteGroup(names, table)
    try:
        comp_dims = [comps[name] for name in group.names]
    except (KeyError, TypeError) as exc:
        raise InvalidInput("components must map every group element name to a dimension") from exc
    extra = sorted(set(comps) - set(group.names))
    if extra:
        raise InvalidInput(f"components name {extra[0]!r}, which is no group element")
    for name, d in zip(group.names, comp_dims):
        if type(d) is not int or d < 0:
            raise InvalidInput(
                f"dimension of component {name!r} must be a non-negative integer, got {d!r}"
            )
    if sum(comp_dims) > MAX_TOTAL_DIM:
        raise InvalidInput(
            f"total dimension {sum(comp_dims)} exceeds the limit of {MAX_TOTAL_DIM}"
        )
    rationals = _Rationals()
    return GradedAlgebra(
        field,
        group,
        comp_dims,
        _structure_items(field, rows, rationals),
        _decoded_vector(field, unit, rationals),
        meta=meta,
    )


def algebra_to_json(alg: GradedAlgebra) -> str:
    return json.dumps(algebra_to_obj(alg), indent=2, sort_keys=True) + "\n"


def algebra_from_json(text: str) -> GradedAlgebra:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    return algebra_from_obj(obj)


def save_algebra(alg: GradedAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra_to_json(alg))


def load_algebra(path) -> GradedAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    return algebra_from_json(text)
