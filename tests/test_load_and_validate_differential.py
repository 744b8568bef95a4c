"""The one-pass loader and the table validator against the code they replaced.

`references.reference_algebra_from_obj` is the two-pass loader (serialize
checked and decoded each row, then the constructor checked it again), and
`references.reference_validate_algebra` checks the unit laws and the
associativity triples by `Element` products.  Both are run on every ring
of `standard_corpus()`, `oracle_scale_corpus()` and the benchmark ladder,
on the three corrupted `valid` files, on the refusal table of
`test_serialize.py`, and on tables with one coefficient changed.
"""
import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.algebra import validate_algebra
from gradedrings.builders import full_matrix_algebra, galois_skew_example, group_algebra, m3_example
from gradedrings.cli import parse_field
from gradedrings.corpus import oracle_scale_corpus, standard_corpus
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group
from gradedrings.linalg import GF, RATIONALS
from gradedrings.serialize import algebra_from_obj, algebra_to_obj, scalar_to_json
from references import reference_algebra_from_obj, reference_validate_algebra
from test_golden_reports import corrupted
from test_serialize import REFUSALS


def _ladder() -> dict:
    """The rings of the benchmark's ladder-gfp and ladder-q workloads."""
    return {
        "galois-2-4": galois_skew_example(2, 4),
        "galois-2-6": galois_skew_example(2, 6),
        "galois-3-3": galois_skew_example(3, 3),
        "m3-gf2": m3_example(GF(2)),
        "m3-gf3": m3_example(GF(3)),
        "m3-q": m3_example(RATIONALS),
        "mat3-q": full_matrix_algebra(RATIONALS, 3),
        "mat4-q": full_matrix_algebra(RATIONALS, 4),
        "mat5-q": full_matrix_algebra(RATIONALS, 5),
        "q-z3": group_algebra(RATIONALS, cyclic_group(3)),
    }


def _documents() -> dict:
    docs = {f"standard/{inst.name}": algebra_to_obj(inst.alg) for inst in standard_corpus()}
    docs.update(
        (f"oracle-scale/{inst.name}", algebra_to_obj(inst.alg)) for inst in oracle_scale_corpus()
    )
    docs.update((f"ladder/{name}", algebra_to_obj(alg)) for name, alg in _ladder().items())
    docs.update((f"corrupted/{name}", obj) for name, obj in corrupted().items())
    return docs


DOCUMENTS = _documents()


def _assert_agree(obj):
    """Both loaders give the same algebra, or the same refusal; both validators the same verdict."""
    try:
        want = reference_algebra_from_obj(copy.deepcopy(obj))
    except InvalidInput as exc:
        with pytest.raises(InvalidInput) as info:
            algebra_from_obj(copy.deepcopy(obj))
        assert str(info.value) == str(exc)
        return
    got = algebra_from_obj(copy.deepcopy(obj))
    assert got._table == want._table
    assert got.unit_coeffs == want.unit_coeffs
    assert got.comp_dims == want.comp_dims
    fast, slow = validate_algebra(got), reference_validate_algebra(got)
    assert (fast.ok, fast.problems, fast.witness, fast.nucleus_generators) == (
        slow.ok,
        slow.problems,
        slow.witness,
        slow.nucleus_generators,
    )


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_loaders_and_validators_agree(name):
    _assert_agree(DOCUMENTS[name])


@pytest.mark.parametrize(
    "field,edit", [case[1:3] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_loaders_refuse_alike(field, edit):
    obj = algebra_to_obj(group_algebra(parse_field(field), cyclic_group(2)))
    edit(obj)
    with pytest.raises(InvalidInput):
        reference_algebra_from_obj(copy.deepcopy(obj))
    _assert_agree(obj)


FLIP_CASES = {
    "gf2": (m3_example(GF(2)), galois_skew_example(2, 3), group_algebra(GF(2), cyclic_group(4))),
    "gf3": (m3_example(GF(3)), galois_skew_example(3, 2), group_algebra(GF(3), cyclic_group(3))),
    "q": (
        m3_example(RATIONALS),
        full_matrix_algebra(RATIONALS, 2),
        group_algebra(RATIONALS, cyclic_group(3)),
    ),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_changed_coefficient(data):
    # one coefficient of a structure row or of the unit changed to another
    # value; a row may become zero, and the unit laws or associativity may
    # fail.  With keep_unit, neither factor of the row is in the unit's
    # support, so the unit laws still hold and the triples decide.
    tag = data.draw(st.sampled_from(sorted(FLIP_CASES)), label="field")
    alg = data.draw(st.sampled_from(FLIP_CASES[tag]), label="algebra")
    f, e = alg.field, alg.group.identity
    obj = algebra_to_obj(alg)
    where = data.draw(st.sampled_from(("unit", "row", "keep_unit")), label="where")
    if where == "unit":
        vec = obj["unit"]
    else:
        unit_support = {(e, i) for i, c in enumerate(alg.unit_coeffs) if c}
        rows = [
            row
            for row in obj["structure"]
            if where == "row" or not {tuple(row[0:2]), tuple(row[2:4])} & unit_support
        ]
        vec = data.draw(st.sampled_from(rows), label="row")[4]
    t = data.draw(st.integers(0, len(vec) - 1), label="coordinate")
    values = st.integers(0, f.p - 1) if f.p else st.fractions(-2, 2, max_denominator=2)
    old = f.coerce(Fraction(vec[t]) if isinstance(vec[t], str) else vec[t])
    new = data.draw(values.filter(lambda v: f.coerce(v) != old), label="value")
    vec[t] = scalar_to_json(f, new)
    _assert_agree(obj)
