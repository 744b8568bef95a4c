"""JSON encoding: canonical bytes, exact scalars, strict parsing."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import serialize
from gradedrings.builders import full_matrix_algebra, group_algebra
from gradedrings.cli import main, parse_field
from gradedrings.corpus import standard_corpus
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group
from gradedrings.linalg import GF, RATIONALS
from gradedrings.serialize import (
    algebra_from_json,
    algebra_to_json,
    algebra_to_obj,
    load_algebra,
    save_algebra,
    scalar_to_json,
)
from references import product_coeffs

CORPUS = standard_corpus()


def test_scalar_encoding_gf():
    f = GF(7)
    assert scalar_to_json(f, 3) == 3


def test_scalar_encoding_rationals():
    f = RATIONALS
    assert scalar_to_json(f, Fraction(-2, 6)) == "-1/3"
    assert scalar_to_json(f, Fraction(5)) == "5/1"


def test_obj_schema_keys(m3_gf2):
    obj = algebra_to_obj(m3_gf2)
    assert set(obj) == {"field", "group", "components", "structure", "unit", "meta"}
    assert obj["field"] == {"type": "GF", "p": 2}
    assert obj["components"] == {"0": 5, "1": 4}
    # structure rows sorted, zero rows omitted
    keys = [tuple(row[:4]) for row in obj["structure"]]
    assert keys == sorted(keys)
    assert all(any(c for c in row[4]) for row in obj["structure"])


def test_round_trip_bytes(m3_gf2):
    text = algebra_to_json(m3_gf2)
    again = algebra_to_json(algebra_from_json(text))
    assert text == again
    assert text.endswith("\n")


def test_round_trip_preserves_products(gf4skew):
    clone = algebra_from_json(algebra_to_json(gf4skew))
    for g in range(2):
        for i in range(2):
            for h in range(2):
                for j in range(2):
                    assert product_coeffs(clone, g, i, h, j) == product_coeffs(
                        gf4skew, g, i, h, j
                    )


def test_rational_algebra_round_trip(q_z2):
    text = algebra_to_json(q_z2)
    obj = json.loads(text)
    assert obj["field"] == {"type": "Q"}
    # every rational is a "num/den" string
    assert obj["unit"] == ["1/1"]
    assert algebra_to_json(algebra_from_json(text)) == text


def test_file_round_trip(tmp_path, gf4skew):
    path = tmp_path / "alg.json"
    save_algebra(gf4skew, path)
    clone = load_algebra(path)
    assert algebra_to_json(clone) == algebra_to_json(gf4skew)


def test_malformed_inputs_rejected():
    with pytest.raises(InvalidInput):
        algebra_from_json("not json at all {")
    with pytest.raises(InvalidInput):
        algebra_from_json(json.dumps({"field": {"type": "GF", "p": 2}}))
    with pytest.raises(InvalidInput):
        algebra_from_json(
            json.dumps(
                {
                    "field": {"type": "GF", "p": 2},
                    "group": {"names": ["0"], "table": [[0]]},
                    "components": {"0": 1},
                    "structure": [[0, 0, 0, 5, [1]]],  # basis index out of range
                    "unit": [1],
                }
            )
        )


@pytest.mark.parametrize(
    "key,value,needle",
    [
        ("meta", [1, 2], "meta must be a JSON object"),
        ("meta", "x", "meta must be a JSON object"),
        ("meta", 5, "meta must be a JSON object"),
        ("structure", {}, "structure must be a list"),
        ("structure", 5, "structure must be a list"),
    ],
)
def test_wrongly_typed_entries_rejected(key, value, needle):
    obj = json.loads(algebra_to_json(CORPUS[0].alg))
    obj[key] = value
    with pytest.raises(InvalidInput, match=needle):
        algebra_from_json(json.dumps(obj))


def test_each_distinct_rational_is_decoded_once(tmp_path, monkeypatch):
    # M4(Q)'s file holds 1,040 rational strings, all "0/1" or "1/1"
    path = tmp_path / "mat4-q.json"
    save_algebra(full_matrix_algebra(RATIONALS, 4), path)
    calls = []
    fraction = serialize._fraction
    monkeypatch.setattr(serialize, "_fraction", lambda v: calls.append(v) or fraction(v))
    alg = load_algebra(path)
    assert alg.dim == 16
    assert len(calls) <= 2


def test_missing_file(tmp_path):
    with pytest.raises(InvalidInput):
        load_algebra(tmp_path / "absent.json")


@given(st.integers(0, len(CORPUS) - 1))
@settings(max_examples=len(CORPUS), deadline=None)
def test_corpus_round_trips_bytewise(idx):
    alg = CORPUS[idx].alg
    text = algebra_to_json(alg)
    assert algebra_to_json(algebra_from_json(text)) == text


# --- the refusal table ---------------------------------------------------------
# Each edit makes one fault in GF(2)[Z/2] or Q[Z/2] (both components are
# lines); loading refuses it with this exact message, and `check` exits 2
# with a single `error:` line.

LONG_RATIONAL = "7" * 5000


def _edit_row(value):
    def edit(obj):
        obj["structure"][0] = value
    return edit


def _edit_index(position, value):
    def edit(obj):
        obj["structure"][0][position] = value
    return edit


def _duplicate_row(obj):
    obj["structure"].append(json.loads(json.dumps(obj["structure"][0])))


def _edit_coeffs(value):
    def edit(obj):
        obj["structure"][0][4] = value
    return edit


def _edit_scalar(value):
    def edit(obj):
        obj["structure"][0][4][0] = value
    return edit


def _edit_unit(value):
    def edit(obj):
        obj["unit"] = value
    return edit


REFUSALS = [
    ("row-int", "gf2", _edit_row(5), "structure row must be [g, i, h, j, coeffs], got 5"),
    (
        "row-short",
        "gf2",
        _edit_row([0, 0, 0, 0]),
        "structure row must be [g, i, h, j, coeffs], got [0, 0, 0, 0]",
    ),
    (
        "row-long",
        "gf2",
        _edit_row([0, 0, 0, 0, [1], 1]),
        "structure row must be [g, i, h, j, coeffs], got [0, 0, 0, 0, [1], 1]",
    ),
    (
        "index-bool",
        "gf2",
        _edit_index(1, True),
        "structure index must be a non-negative integer, got (0, True, 0, 0)",
    ),
    (
        "index-float",
        "gf2",
        _edit_index(2, 0.0),
        "structure index must be a non-negative integer, got (0, 0, 0.0, 0)",
    ),
    (
        "index-negative",
        "gf2",
        _edit_index(3, -1),
        "structure index must be a non-negative integer, got (0, 0, 0, -1)",
    ),
    ("duplicate-row", "gf2", _duplicate_row, "duplicate structure row for (0, 0, 0, 0)"),
    (
        "group-index-range",
        "gf2",
        _edit_index(0, 2),
        "structure key (2, 0, 0, 0) has a bad group index",
    ),
    (
        "basis-index-range",
        "gf2",
        _edit_index(3, 1),
        "structure key (0, 0, 0, 1) has a bad basis index",
    ),
    (
        "coeffs-too-long",
        "gf2",
        _edit_coeffs([1, 0]),
        "product coefficients at (0, 0, 0, 0) must have length 1",
    ),
    (
        "coeffs-empty",
        "q",
        _edit_coeffs([]),
        "product coefficients at (0, 0, 0, 0) must have length 1",
    ),
    ("coeffs-not-list", "gf2", _edit_coeffs(1), "coefficient vector must be a list"),
    ("gf-string", "gf2", _edit_scalar("x"), "GF(2) scalar must be an int, got 'x'"),
    ("gf-float", "gf2", _edit_scalar(1.5), "GF(2) scalar must be an int, got 1.5"),
    ("gf-bool", "gf2", _edit_scalar(True), "GF(2) scalar must be an int, got True"),
    ("q-zero-denominator", "q", _edit_scalar("1/0"), "bad rational scalar '1/0'"),
    ("q-not-a-number", "q", _edit_scalar("abc"), "bad rational scalar 'abc'"),
    ("q-5000-digits", "q", _edit_scalar(LONG_RATIONAL), f"bad rational scalar {LONG_RATIONAL!r}"),
    ("unit-not-list-gf", "gf2", _edit_unit(1), "coefficient vector must be a list"),
    ("unit-not-list-q", "q", _edit_unit("1/1"), "coefficient vector must be a list"),
    (
        "unit-too-long",
        "q",
        _edit_unit(["1/1", "0/1"]),
        "unit must be a coefficient vector over the identity component",
    ),
    (
        "unit-empty",
        "gf2",
        _edit_unit([]),
        "unit must be a coefficient vector over the identity component",
    ),
]


@pytest.mark.parametrize(
    "field,edit,message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_refusal_table(tmp_path, capsys, field, edit, message):
    obj = algebra_to_obj(group_algebra(parse_field(field), cyclic_group(2)))
    edit(obj)
    text = json.dumps(obj)
    with pytest.raises(InvalidInput) as info:
        algebra_from_json(text)
    assert str(info.value) == message
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["check", str(path), "--property", "valid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
