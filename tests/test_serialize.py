"""JSON encoding: canonical bytes, exact scalars, strict parsing."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.corpus import standard_corpus
from gradedrings.errors import InvalidInput
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


def test_missing_file(tmp_path):
    with pytest.raises(InvalidInput):
        load_algebra(tmp_path / "absent.json")


@given(st.integers(0, len(CORPUS) - 1))
@settings(max_examples=len(CORPUS), deadline=None)
def test_corpus_round_trips_bytewise(idx):
    alg = CORPUS[idx].alg
    text = algebra_to_json(alg)
    assert algebra_to_json(algebra_from_json(text)) == text
