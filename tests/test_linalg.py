"""Exact kernel: fields, RREF, nullspace, subspace arithmetic."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import linalg
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
    subspace_sum,
)
from references import (
    contains_subspace,
    matrix_product,
    matrix_scale,
    subspace_intersect,
    textbook_rref,
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


def test_field_refuses_a_large_characteristic_before_testing_primality(monkeypatch):
    # trial division on a Mersenne prime near 2**61 would take minutes
    def no_trial_division(n):
        raise AssertionError(f"primality tested on {n}")

    monkeypatch.setattr(linalg, "_is_prime", no_trial_division)
    with pytest.raises(InvalidInput, match="< 2\\*\\*31"):
        Field(2**61 - 1)


def test_field_arithmetic_gf5():
    f = GF(5)
    assert f.sub(3, 4) == 4
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.div(1, 4) == 4
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rational_inverse_and_quotient_of_ints_are_fractions():
    f = RATIONALS
    for got, want in (
        (f.inv(2), Fraction(1, 2)),
        (f.inv(-3), Fraction(-1, 3)),
        (f.div(f.one, 3), Fraction(1, 3)),
        (f.div(2, 6), Fraction(1, 3)),
        (f.inv(Fraction(2, 5)), Fraction(5, 2)),
    ):
        assert type(got) is Fraction and got == want
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


PRIMITIVE_FIELDS = [GF(2), GF(3), GF(65521), RATIONALS]
# canonical, negative and >= p ints for every field above
INTS = st.integers(-3 * 65521, 3 * 65521)


def _scalars(field):
    """Scalars the field accepts: ints, and over Q Fractions too."""
    return INTS if field.p else st.one_of(INTS, st.fractions(max_denominator=12))


def _canonical_type(field, values):
    return all(type(x) is type(field.zero) for x in values)


@pytest.mark.parametrize("field", PRIMITIVE_FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), off=st.integers(0, 40))
def test_sparse_entry_matches_vector(field, data, off):
    xs = data.draw(st.lists(_scalars(field), max_size=12), label="xs")
    want = {off + r: x for r, x in enumerate(field.vector(xs)) if x}
    got = field.sparse(xs, off)
    assert list(got.items()) == list(want.items())
    assert _canonical_type(field, got.values())
    assert field.sparse(tuple(xs)) == {r - off: x for r, x in want.items()}


@pytest.mark.parametrize("field", PRIMITIVE_FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reducer_matches_vector_on_exact_sums(field, data):
    # sums of canonical operands are ints over GF(p) and Fractions over Q
    values = INTS if field.p else st.fractions(max_denominator=12)
    sums = data.draw(st.lists(values, max_size=12), label="sums")
    got = list(field.reduce(sums))
    assert got == list(field.vector(sums))
    assert _canonical_type(field, got)
    keyed = {3 * k: x for k, x in enumerate(sums)}
    assert {k: x for k, x in zip(keyed, field.reduce(keyed.values())) if x} == {
        k: x for k, x in zip(keyed, field.vector(keyed.values())) if x
    }


@pytest.mark.parametrize("field", PRIMITIVE_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    bad=st.sampled_from([True, False, 1.0, -0.5, "1", "x", None]),
    off=st.integers(0, 9),
)
def test_sparse_entry_refuses_with_the_message_of_vector(field, data, bad, off):
    xs = data.draw(st.lists(_scalars(field), max_size=6), label="xs")
    xs.insert(data.draw(st.integers(0, len(xs)), label="at"), bad)
    with pytest.raises(InvalidInput) as want:
        field.vector(xs)
    with pytest.raises(InvalidInput) as got:
        field.sparse(xs, off)
    assert str(got.value) == str(want.value)


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


PRODUCT_FIELDS = [GF(2), GF(3), GF(1009), RATIONALS]


def sparse_matrix(field, rows, cols, density, rng):
    """A rows x cols matrix whose entries are nonzero with probability density;
    over Q the nonzero entries are +-1 and +-1/2, so sums often cancel."""
    small = [1, -1, Fraction(1, 2), Fraction(-1, 2)]

    def entry():
        if rng.random() >= density:
            return 0
        return rng.choice(small) if field.p == 0 else rng.randrange(1, field.p)

    return Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


def assert_canonical(m):
    if m.field.p:
        assert all(type(x) is int and 0 <= x < m.field.p for row in m.entries for x in row)
    else:
        assert all(type(x) is Fraction for row in m.entries for x in row)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(PRODUCT_FIELDS),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_matrix_product_matches_entrywise_reference(field, n, k, m, density, seed):
    rng = random.Random(seed)
    a = sparse_matrix(field, n, k, density, rng)
    b = sparse_matrix(field, k, m, density, rng)
    if n:
        zero_row = Matrix(field, [[0] * k], cols=k)
        a = a.stack(zero_row)
    prod = a @ b
    assert prod.shape == (a.rows, m)
    assert prod.entries == matrix_product(a, b)
    assert_canonical(prod)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_matrix_product_of_empty_shapes(field):
    for n, k, m in [(0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 0, 0)]:
        a = Matrix(field, [[1] * k for _ in range(n)], cols=k)
        b = Matrix(field, [[1] * m for _ in range(k)], cols=m)
        prod = a @ b
        assert prod.shape == (n, m)
        assert prod.entries == ((field.zero,) * m,) * n
        assert_canonical(prod)


def test_rational_products_that_cancel_are_canonical_zeros():
    a = Matrix(RATIONALS, [[1, 1, Fraction(1, 2)], [0, 2, -1]])
    b = Matrix(RATIONALS, [[1, Fraction(1, 3)], [-1, Fraction(-1, 6)], [0, Fraction(-1, 3)]])
    prod = a @ b
    assert prod.entries == ((0, 0), (-2, 0))
    assert_canonical(prod)


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
    assert contains_subspace(s, u) and contains_subspace(s, v)


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


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_matches_textbook_elimination(field):
    rng = random.Random(11)
    for rows, cols in [(1, 3), (3, 1), (3, 5), (5, 3), (4, 4), (6, 6)]:
        for _ in range(4):
            m = random_matrix(field, rows, cols, rng)
            for case in (m, m.stack(m), m.stack(matrix_scale(m, 2))):
                want_rows, want_rank = textbook_rref(field, case.entries)
                got, rank = rref(case)
                assert rank == want_rank
                assert got == Matrix(field, want_rows)


def _nonzero_scalar(field, rng):
    while True:
        x = field.random_scalar(rng)
        if x:
            return x


def _random_row(field, width, density, rng):
    return [
        _nonzero_scalar(field, rng) if rng.random() < density else field.zero for _ in range(width)
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([GF(2), GF(3), GF(1009), RATIONALS]),
    st.integers(0, 8),
    st.sampled_from([0, 0.2, 1]),
    st.integers(1, 10),
    st.integers(0, 2**30 - 1),
)
def test_echelon_basis_matches_textbook_elimination(field, width, density, count, seed):
    # rows added one at a time, some of them copies or multiples of earlier
    # ones, each prefix checked against a fresh textbook elimination
    rng = random.Random(seed)
    eb, added = EchelonBasis(field, width), []
    for _ in range(count):
        roll = rng.random()
        if added and roll < 0.2:
            vec = list(rng.choice(added))
        elif added and roll < 0.4:
            c = _nonzero_scalar(field, rng)
            vec = [field.mul(c, x) for x in rng.choice(added)]
        else:
            vec = _random_row(field, width, density, rng)
        want, rank = textbook_rref(field, added + [vec])
        grew = rank > eb.rank
        assert eb.add(vec) == grew
        added.append(vec)
        assert eb.rank == rank
        assert eb.rows == [tuple(row) for row in want[:rank]]
        assert sorted(eb._rows) == [next(c for c, x in enumerate(row) if x) for row in want[:rank]]
        assert eb.is_full() == (rank == width)
        assert eb.contains(vec)
        probe = _random_row(field, width, density, rng)
        assert eb.contains(probe) == (textbook_rref(field, added + [probe])[1] == rank)


@pytest.mark.parametrize("field", [GF(3), RATIONALS], ids=str)
def test_echelon_basis_refuses_vectors_of_the_wrong_length(field):
    # a short vector must not become a row, nor a long one truncate the rows
    eb = EchelonBasis(field, 3)
    for vec in ([1, 2], [0, 1, 1, 1], [1, 0, 0, 0, 0]):
        for method in (eb.add, eb.contains):
            with pytest.raises(InvalidInput):
                method(vec)
    assert eb.rank == 0
    assert eb.add([1, 2, 0]) and eb.rows == [(1, 2, 0)]
    with pytest.raises(InvalidInput):
        eb.add([0, 1, 1, 1])
    assert eb.rows == [(1, 2, 0)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_contains_agrees_with_rank(field):
    rng = random.Random(12)
    for _ in range(20):
        basis = random_matrix(field, 3, 5, rng)
        w = Subspace(field, 5, basis.stack(matrix_scale(basis, 3)))
        vec = rng.choice([basis.row(0), random_matrix(field, 1, 5, rng).row(0)])
        grown = Subspace(field, 5, w.basis.stack(Matrix(field, [vec])))
        assert w.contains(vec) == (grown.dim == w.dim)


def _raw_scalars(field):
    """Scalars Subspace.contains accepts: ints of any size, and over Q Fractions too."""
    ints = st.integers(-20, 20)
    return ints if field.p else st.one_of(ints, st.fractions(max_denominator=6))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subspace_contains_agrees_with_echelon_basis_and_rank(field, data):
    # Subspace.contains tests its vector in the EchelonBasis of the
    # subspace's rows; members are drawn as combinations of the rows
    n = data.draw(st.integers(1, 6), label="n")
    vectors = st.lists(_raw_scalars(field), min_size=n, max_size=n)
    rows = data.draw(st.lists(vectors, max_size=4), label="rows")
    w = Subspace.from_vectors(field, n, rows)
    eb = EchelonBasis(field, n)
    for row in rows:
        eb.add(row)
    probes = data.draw(st.lists(vectors, min_size=1, max_size=4), label="probes")
    if w.dim:
        coeffs = data.draw(st.lists(_raw_scalars(field), min_size=w.dim, max_size=w.dim))
        probes.append(field.combine(field.vector(coeffs), w.basis.entries))
    for vec in probes:
        grown = Subspace.from_vectors(field, n, rows + [vec])
        assert w.contains(vec) == eb.contains(vec) == (grown.dim == w.dim)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    bad=st.sampled_from([True, False, 1.0, -0.5, "1", "x"]),
)
def test_subspace_contains_refuses_with_the_messages_of_vector_and_length(field, data, bad):
    n = data.draw(st.integers(1, 5), label="n")
    vectors = st.lists(_raw_scalars(field), min_size=n, max_size=n)
    w = Subspace.from_vectors(field, n, data.draw(st.lists(vectors, max_size=3), label="rows"))
    vec = data.draw(vectors, label="vec")
    vec[data.draw(st.integers(0, n - 1), label="at")] = bad
    with pytest.raises(InvalidInput) as want:
        field.vector(vec)
    with pytest.raises(InvalidInput) as got:
        w.contains(vec)
    assert str(got.value) == str(want.value)
    for wrong in (vec[:-1], vec + [0], [0] * (n + 1)):
        with pytest.raises(InvalidInput) as got:
            w.contains(wrong)
        assert str(got.value) == "vector length differs from ambient dimension"


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


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_eliminations_insert_matrix_rows_unchecked(field, monkeypatch):
    # a Matrix's entries are canonical by construction, so rref, nullspace
    # and solve never pass its rows through EchelonBasis.add's check
    rng = random.Random(14)
    a = random_matrix(field, 4, 5, rng)
    b = random_matrix(field, 4, 2, rng)
    calls = []
    real = EchelonBasis.add
    monkeypatch.setattr(EchelonBasis, "add", lambda self, v: calls.append(v) or real(self, v))

    assert rref(a)[1] == rref(a.transpose())[1]
    assert all(not any(a.apply(v)) for v in nullspace(a).basis.entries)
    x = solve(a, b)
    assert x is None or a @ x == b
    assert calls == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_product_rows_go_into_echelon_bases_unchecked(field, monkeypatch):
    # minimal_polynomial's powers come from Matrix.mul and envelope's
    # products from its own sparse sums, both canonical, so both go into
    # their EchelonBasis through the unchecked _insert_sparse and neither
    # pays add's check
    from gradedrings.bimodule import envelope, regular_bimodule_action
    from gradedrings.builders import full_matrix_algebra
    from gradedrings.poly import minimal_polynomial

    action = regular_bimodule_action(full_matrix_algebra(field, 2))
    calls = []
    real = EchelonBasis.add
    monkeypatch.setattr(EchelonBasis, "add", lambda self, v: calls.append(v) or real(self, v))

    assert envelope(action)[0] == 16
    assert minimal_polynomial(action.left_ops[1]) == [field.zero, field.zero, field.one]
    assert calls == []


def test_empty_rational_sums_are_fractions():
    a = Matrix(RATIONALS, [(), ()])
    b = Matrix(RATIONALS, [], cols=3)
    prod = a @ b
    assert prod.shape == (2, 3)
    assert all(type(x) is Fraction for row in prod.entries for x in row)
    zero_sum = RATIONALS.combine([Fraction(1), Fraction(0)], [(Fraction(0),), (Fraction(2),)])
    assert zero_sum == [0] and type(zero_sum[0]) is Fraction
