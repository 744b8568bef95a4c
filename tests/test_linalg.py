"""Exact kernel: fields, RREF, nullspace, subspace arithmetic."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.errors import InvalidInput
from gradedrings.linalg import (
    GF,
    RATIONALS,
    EchelonBasis,
    Field,
    Matrix,
    Subspace,
    annihilator,
    nullspace,
    projective_count,
    projective_vectors,
    rref,
    solve,
    solve_vector,
    span_candidates,
    subspace_intersect,
    subspace_sum,
)

FIELDS = [GF(2), GF(3), GF(7), RATIONALS]


def random_matrix(field, rows, cols, rng):
    return Matrix(
        field, [[field.random_scalar(rng) for _ in range(cols)] for _ in range(rows)]
    )


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------


def test_field_construction():
    assert GF(2).p == 2
    assert RATIONALS.p == 0
    with pytest.raises(InvalidInput):
        Field(4)
    with pytest.raises(InvalidInput):
        GF(0)


def test_field_arithmetic_gf5():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.div(1, 4) == 4
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rational_coercion_stays_exact():
    f = RATIONALS
    x = f.coerce(Fraction(1, 3))
    assert f.mul(x, 3) == 1
    with pytest.raises(InvalidInput):
        f.coerce(0.5)
    with pytest.raises(InvalidInput):
        GF(3).coerce(Fraction(1, 2))


# --------------------------------------------------------------------------
# matrices and solving
# --------------------------------------------------------------------------


def test_matrix_shapes_and_products():
    f = GF(3)
    a = Matrix(f, [[1, 2], [0, 1], [2, 2]])
    b = Matrix(f, [[1, 0, 1], [2, 1, 0]])
    assert (a @ b).shape == (3, 3)
    assert a.transpose().shape == (2, 3)
    assert Matrix.identity(f, 2).is_identity()
    assert a.apply((1, 1)) == (0, 1, 1)


def test_solve_known_system():
    f = GF(7)
    a = Matrix(f, [[1, 2], [3, 4]])
    x = solve_vector(a, (5, 6))
    assert x is not None
    assert a.apply(x) == (5, 6)


def test_solve_inconsistent_returns_none():
    f = GF(2)
    a = Matrix(f, [[1, 1], [1, 1]])
    assert solve_vector(a, (0, 1)) is None
    assert solve(a, Matrix(f, [[0], [1]])) is None


def test_rref_pins():
    f = GF(2)
    reduced, rank = rref(Matrix(f, [[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    assert rank == 2
    assert reduced.entries == ((1, 0, 1), (0, 1, 1), (0, 0, 0))


# --------------------------------------------------------------------------
# subspaces
# --------------------------------------------------------------------------


def test_subspace_canonical_equality():
    f = GF(3)
    u = Subspace.from_vectors(f, 3, [(1, 2, 0), (0, 0, 1)])
    v = Subspace.from_vectors(f, 3, [(1, 2, 1), (0, 0, 2)])
    assert u == v
    assert hash(u) == hash(v)
    assert u.contains((1, 2, 2))
    assert not u.contains((1, 0, 0))


def test_sum_intersect_modular_law():
    f = GF(2)
    u = Subspace.from_vectors(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    v = Subspace.from_vectors(f, 4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    s = subspace_sum(u, v)
    i = subspace_intersect(u, v)
    assert s.dim == 3 and i.dim == 1
    assert i.contains((0, 1, 0, 0))
    assert s.contains_subspace(u) and s.contains_subspace(v)


@pytest.mark.parametrize("f", [GF(2), GF(7), RATIONALS], ids=str)
def test_intersection_of_full_spaces_is_full(f):
    for n in (0, 1, 3):
        full = Subspace.full(f, n)
        assert subspace_intersect(full, full) == full


def test_annihilator_dimension():
    f = GF(5)
    u = Subspace.from_vectors(f, 4, [(1, 2, 3, 4)])
    a = annihilator(u)
    assert a.dim == 3
    for row in a.basis.entries:
        assert sum(f.mul(x, y) for x, y in zip(row, (1, 2, 3, 4))) % 5 == 0


def test_echelon_basis_incremental():
    f = GF(2)
    eb = EchelonBasis(f, 3)
    assert eb.add((1, 1, 0))
    assert not eb.add((1, 1, 0))
    assert eb.add((0, 1, 1))
    assert eb.contains((1, 0, 1))
    assert eb.to_subspace() == Subspace.from_vectors(f, 3, [(1, 1, 0), (0, 1, 1)])


def test_projective_vectors_count():
    f = GF(3)
    eye = Matrix.identity(f, 3).entries
    vecs = list(projective_vectors(f, eye))
    assert len(vecs) == projective_count(3, 3) == 13
    assert len(set(vecs)) == 13


def _span_rows(field):
    return Matrix(field, [[1, 2, 0, 1], [0, 1, 1, 0], [0, 0, 1, 3]]).entries


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7)], ids=str)
def test_span_candidates_sweep_within_budget(field):
    rows = _span_rows(field)
    points = projective_count(field.p, len(rows))
    for budget in (points, 10 * points):
        candidates, complete = span_candidates(field, rows, random.Random(0), 5, budget)
        assert complete
        assert list(candidates) == list(projective_vectors(field, rows))


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), RATIONALS], ids=str)
def test_span_candidates_sample_past_budget(field):
    rows = _span_rows(field)
    budget = projective_count(field.p, len(rows)) - 1 if field.p else 4096
    candidates, complete = span_candidates(field, rows, random.Random(5), 20, budget)
    assert not complete
    got = list(candidates)
    assert got[: len(rows)] == list(rows)
    drawn = got[len(rows):]
    assert len(drawn) <= 20
    span = Subspace.from_vectors(field, 4, rows)
    assert all(any(v) and span.contains(v) for v in drawn)
    again, _ = span_candidates(field, rows, random.Random(5), 20, budget)
    assert list(again) == got


def test_span_candidates_draw_only_what_is_consumed():
    rows = _span_rows(GF(7))
    rng = random.Random(1)
    candidates, complete = span_candidates(GF(7), rows, rng, 3, 1)
    state = rng.getstate()
    assert not complete and next(candidates) == rows[0]
    assert rng.getstate() == state


def test_span_candidates_over_q_sweep_only_lines():
    for k in (0, 1):
        rows = _span_rows(RATIONALS)[:k]
        candidates, complete = span_candidates(RATIONALS, rows, random.Random(0), 5, 1)
        assert complete and list(candidates) == list(rows)
    plane = _span_rows(RATIONALS)[:2]
    candidates, complete = span_candidates(RATIONALS, plane, random.Random(0), 0, 10**9)
    assert not complete and list(candidates) == list(plane)


# --------------------------------------------------------------------------
# randomized identities (the deterministic sweep lives in the acceptance run)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_nullity_randomized(field):
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(field, rows, cols, rng)
        reduced, rank = rref(m)
        assert rank + nullspace(m).dim == cols
        again, again_rank = rref(reduced)
        assert again == reduced and again_rank == rank


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_nullspace_vectors_annihilate(field):
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
        ns = nullspace(m)
        for row in ns.basis.entries:
            assert all(x == field.zero for x in m.apply(row))


@given(st.integers(0, 2**30 - 1), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_subspace_dim_formula_hypothesis(seed, du, dv):
    f = GF(2)
    rng = random.Random(seed)
    u = Subspace.from_vectors(f, 5, [[rng.randrange(2) for _ in range(5)] for _ in range(du)])
    v = Subspace.from_vectors(f, 5, [[rng.randrange(2) for _ in range(5)] for _ in range(dv)])
    assert subspace_sum(u, v).dim + subspace_intersect(u, v).dim == u.dim + v.dim


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=40, deadline=None)
def test_solve_roundtrip_hypothesis(seed):
    rng = random.Random(seed)
    f = GF(5)
    a = random_matrix(f, 4, 3, rng)
    x = tuple(rng.randrange(5) for _ in range(3))
    b = a.apply(x)
    got = solve_vector(a, b)
    assert got is not None
    assert a.apply(got) == b


# --------------------------------------------------------------------------
# one elimination kernel; scalars checked where they enter
# --------------------------------------------------------------------------


def _textbook_rref(field, rows):
    """Gauss-Jordan elimination one scalar at a time, as an independent reference."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_matches_textbook_elimination(field):
    rng = random.Random(11)
    for rows, cols in [(1, 3), (3, 1), (3, 5), (5, 3), (4, 4), (6, 6)]:
        for _ in range(4):
            m = random_matrix(field, rows, cols, rng)
            for case in (m, m.stack(m), m.stack(m.scale(2))):
                want_rows, want_rank = _textbook_rref(field, case.entries)
                got, rank = rref(case)
                assert rank == want_rank
                assert got == Matrix(field, want_rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_contains_agrees_with_rank(field):
    rng = random.Random(12)
    for _ in range(20):
        basis = random_matrix(field, 3, 5, rng)
        w = Subspace(field, 5, basis.stack(basis.scale(3)))
        vec = rng.choice([basis.row(0), random_matrix(field, 1, 5, rng).row(0)])
        grown = Subspace(field, 5, w.basis.stack(Matrix(field, [vec])))
        assert w.contains(vec) == (grown.dim == w.dim)


def test_echelon_basis_keeps_rational_input_exact():
    eb = EchelonBasis(RATIONALS, 2)
    assert eb.add([2, 1])
    assert list(eb.rows[0]) == [1, Fraction(1, 2)]
    assert all(type(x) is Fraction for x in eb.rows[0])


def test_echelon_basis_reduces_gfp_input_before_using_it():
    eb = EchelonBasis(GF(3), 2)
    assert not eb.add([3, 0])
    assert eb.rank == 0
    assert eb.add([4, 0])
    assert list(eb.rows[0]) == [1, 0]


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("field", [GF(3), RATIONALS], ids=str)
def test_vector_entry_points_refuse_non_field_scalars(field, bad):
    vec = (bad, 0)
    with pytest.raises(InvalidInput):
        Matrix(field, [vec])
    with pytest.raises(InvalidInput):
        Matrix.identity(field, 2).apply(vec)
    with pytest.raises(InvalidInput):
        EchelonBasis(field, 2).add(vec)
    with pytest.raises(InvalidInput):
        EchelonBasis(field, 2).contains(vec)
    with pytest.raises(InvalidInput):
        Subspace.full(field, 2).contains(vec)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_results_are_not_rechecked(field, monkeypatch):
    from gradedrings.builders import group_algebra
    from gradedrings.groups import cyclic_group

    rng = random.Random(13)
    a = random_matrix(field, 4, 5, rng)
    b = random_matrix(field, 5, 3, rng)
    alg = group_algebra(field, cyclic_group(3))
    x = alg.from_flat([field.random_scalar(rng) for _ in range(alg.dim)])
    y = alg.from_flat([field.random_scalar(rng) for _ in range(alg.dim)])
    calls = []
    real = Field.coerce
    monkeypatch.setattr(Field, "coerce", lambda self, s: calls.append(s) or real(self, s))

    prod = a @ b
    rref(a)
    nullspace(a)
    eb = EchelonBasis(field, 3)
    for row in prod.entries:
        eb.add(row)
    x * y
    assert calls == []


def test_empty_rational_sums_are_fractions():
    a = Matrix(RATIONALS, [(), ()])
    b = Matrix(RATIONALS, [], cols=3)
    prod = a @ b
    assert prod.shape == (2, 3)
    assert all(type(x) is Fraction for row in prod.entries for x in row)
    zero_sum = RATIONALS.combine([Fraction(1), Fraction(0)], [(Fraction(0),), (Fraction(2),)])
    assert zero_sum == [0] and type(zero_sum[0]) is Fraction
