"""Structure-constant algebras: elements, flattening, graded subspaces."""
import functools
import random
import tracemalloc
from unittest import mock
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import algebra
from gradedrings.algebra import (
    Element,
    GradedAlgebra,
    GradedSubspace,
    graded_subspace_from_flat,
    is_invertible,
    validate_algebra,
)
from gradedrings.bimodule import image_rank
from gradedrings.builders import full_matrix_algebra, galois_skew_example, group_algebra, m3_example
from gradedrings.corpus import Instance, dead_component_line, oracle_scale_corpus
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group, symmetric_group, trivial_group
from gradedrings.linalg import GF, RATIONALS, Matrix, Subspace
from references import (
    component_product,
    field_add,
    product_coeffs,
    reference_left_matrix,
    reference_right_matrix,
)


def test_construction_checks_dimensions():
    f = GF(2)
    with pytest.raises(InvalidInput):
        # structure row of the wrong length
        GradedAlgebra(f, cyclic_group(2), (1, 1), {(0, 0, 0, 0): (1, 1)}, (1,))


def test_unit_and_labels(m3_gf2):
    alg = m3_gf2
    assert alg.dim == 9
    assert alg.comp_dims == (5, 4)
    one = alg.one()
    assert one * one == one
    assert alg.label(0, 0) == "e11"
    assert alg.label(1, 0) == "e12"


def test_element_arithmetic(gf2_z2):
    alg = gf2_z2
    e = alg.basis_element(0, 0)
    u = alg.basis_element(1, 0)
    assert u * u == e
    assert not ((e + u) * (e + u)).terms  # characteristic 2
    assert e - u == e + u
    x = alg.element({0: (1,), 1: (1,)})
    assert x == e + u
    assert x.support() == (0, 1)


def test_scalar_action_and_hash(q_z2):
    alg = q_z2
    u = alg.basis_element(1, 0)
    assert 2 * u == u + u
    assert not u.scale(0).terms
    assert hash(u) == hash(alg.basis_element(1, 0))


def test_flatten_roundtrip(m3_gf2):
    alg = m3_gf2
    x = alg.element({0: (1, 0, 1, 0, 1), 1: (0, 1, 1, 0)})
    assert alg.from_flat(alg.flatten(x)) == x
    assert len(alg.flatten(x)) == 9


def test_left_right_matrices_agree_with_products(m3_gf2):
    alg = m3_gf2
    rng = random.Random(3)
    for _ in range(10):
        x = alg.from_flat([rng.randrange(2) for _ in range(9)])
        y = alg.from_flat([rng.randrange(2) for _ in range(9)])
        assert alg.left_matrix(x).apply(alg.flatten(y)) == alg.flatten(x * y)
        assert alg.right_matrix(x).apply(alg.flatten(y)) == alg.flatten(y * x)


OPERATOR_ALGEBRAS = {
    "galois-2-4": lambda: galois_skew_example(2, 4),
    "m3-q": lambda: m3_example(RATIONALS),
    "gf3-s3": lambda: group_algebra(GF(3), symmetric_group(3)),
}


@functools.lru_cache(maxsize=None)
def _operator_algebra(name):
    return OPERATOR_ALGEBRAS[name]()


@pytest.mark.parametrize("name", sorted(OPERATOR_ALGEBRAS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**30 - 1), density=st.sampled_from([0, 0.2, 1]))
def test_element_operators_match_one_element_product_per_basis_vector(name, seed, density):
    # left_matrix and right_matrix read one table product per basis vector;
    # the reference multiplies x by each basis Element
    alg = _operator_algebra(name)
    f, rng = alg.field, random.Random(seed)
    x = alg.from_flat(
        [f.random_scalar(rng) if rng.random() < density else 0 for _ in range(alg.dim)]
    )
    assert alg.left_matrix(x) == reference_left_matrix(x)
    assert alg.right_matrix(x) == reference_right_matrix(x)


def test_element_operators_refuse_an_element_of_another_algebra(m3_gf2, gf2_z2):
    x = gf2_z2.basis_element(1, 0)
    for operator in (m3_gf2.left_matrix, m3_gf2.right_matrix):
        with pytest.raises(InvalidInput, match="elements of different algebras"):
            operator(x)


def test_basis_of_flat_refuses_indices_outside_the_basis(m3_gf2):
    assert m3_gf2.basis_of_flat(8) == (1, 3)
    dead = dead_component_line(GF(2))  # R_2 = 0: flat index 1 would name no basis element
    assert dead.comp_dims[2] == 0 and dead.basis_of_flat(0) == (0, 0)
    for alg, idx in ((m3_gf2, 9), (m3_gf2, 100), (m3_gf2, -1), (dead, 1)):
        with pytest.raises(InvalidInput, match="flat index out of range"):
            alg.basis_of_flat(idx)
    # b_{0,5} of m3 would be flat index 5, which is b_{1,0}
    for g, i in ((0, 5), (0, -1), (2, 0), (3, 0)):
        with pytest.raises(InvalidInput, match="no basis element"):
            (dead if g > 1 else m3_gf2).basis_element(g, i)


def test_mixed_algebra_elements_rejected(gf2_z2, m3_gf2):
    with pytest.raises(InvalidInput):
        gf2_z2.one() * m3_gf2.one()


def test_identity_component_algebra(m3_gf2):
    base = m3_gf2.identity_component_algebra()
    assert base.group.order == 1
    assert base.dim == 5
    assert validate_algebra(base).ok
    # e11 and e22 are orthogonal idempotents
    e11 = base.basis_element(0, 0)
    e22 = base.basis_element(0, 2)
    assert e11 * e11 == e11
    assert not (e11 * e22).terms


def test_is_invertible(m3_gf2):
    alg = m3_gf2
    one = alg.one()
    inv = is_invertible(one)
    assert inv == one
    # e11 is a zero divisor
    assert is_invertible(alg.basis_element(0, 0)) is None
    # a permutation-like homogeneous unit: the full antidiagonal swap e13+e22+e31
    u = alg.element({0: (0, 1, 1, 1, 0)})
    ui = is_invertible(u)
    assert ui is not None and u * ui == one


def test_validate_algebra_flags_broken_unit():
    f = GF(2)
    # claims (0,) is a unit but the product table makes it act as zero
    alg = GradedAlgebra(f, trivial_group(), (1,), {}, (1,))
    diag = validate_algebra(alg)
    assert not diag.ok


def test_validate_algebra_flags_nonassociative():
    f = GF(3)
    # x*x = 1 with x*1 = 0 breaks both unit laws and associativity
    structure = {
        (0, 0, 0, 0): (1, 0),
        (0, 0, 0, 1): (0, 0),
        (0, 1, 0, 0): (0, 0),
        (0, 1, 0, 1): (1, 0),
    }
    alg = GradedAlgebra(f, trivial_group(), (2,), structure, (1, 0))
    assert not validate_algebra(alg).ok


# --- the left-nucleus certificate --------------------------------------------

NUCLEUS_CASES = (
    galois_skew_example(2, 3),
    galois_skew_example(3, 2),
    m3_example(GF(3)),
    m3_example(RATIONALS),
)


def _scan_alone(alg):
    """validate_algebra with the certificate turned off: unit laws, then the full scan."""
    with mock.patch.object(algebra, "_left_nucleus_generators", lambda *args: None):
        return validate_algebra(alg)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nucleus_certificate_agrees_with_the_full_scan(data):
    # one structure entry b_a * b_b changed; with keep_unit, neither factor
    # is in the unit's support, so the unit laws still hold
    alg = data.draw(st.sampled_from(NUCLEUS_CASES), label="algebra")
    f, e = alg.field, alg.group.identity
    keep_unit = data.draw(st.booleans(), label="keep_unit")
    unit_support = {alg.offsets[e] + i for i, c in enumerate(alg.unit_coeffs) if c}
    pool = [k for k in range(alg.dim) if not (keep_unit and k in unit_support)]
    a = data.draw(st.sampled_from(pool), label="a")
    b = data.draw(st.sampled_from(pool), label="b")
    (g, i), (h, j) = alg.basis_of_flat(a), alg.basis_of_flat(b)
    old = list(product_coeffs(alg, g, i, h, j))
    t = data.draw(st.integers(0, len(old) - 1), label="coordinate")
    values = st.integers(0, f.p - 1) if f.p else st.fractions(-2, 2, max_denominator=2)
    new = f.coerce(data.draw(values.filter(lambda v: f.coerce(v) != old[t]), label="value"))
    old[t] = new
    structure = dict(alg.structure_items())
    structure[(g, i, h, j)] = tuple(old)
    bad = GradedAlgebra(f, alg.group, alg.comp_dims, structure, alg.unit_coeffs)
    got, want = validate_algebra(bad), _scan_alone(bad)
    assert (got.ok, got.problems, got.witness) == (want.ok, want.problems, want.witness)
    assert (got.nucleus_generators is not None) == got.ok
    if keep_unit:
        assert not any(p.startswith("unit law") for p in got.problems)


def test_nucleus_certificate_makes_few_products(monkeypatch):
    # the full scan made 94,680 Element products on galois(2,6), and the
    # certificate by Element products 5,328: |S| = 2 members against the
    # 36^2 basis pairs.  The triples are now sums read from the table dicts.
    alg = galois_skew_example(2, 6)
    calls = []
    mul = Element.__mul__
    monkeypatch.setattr(Element, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    diag = validate_algebra(alg)
    assert diag.ok and len(diag.nucleus_generators) == 2
    assert len(calls) <= 200


def test_loading_and_validating_make_no_vector_call_per_row_or_per_c(monkeypatch):
    # the loader's rows go through Field.sparse and the validator's sums
    # through Field.reduce, so of the 1,296 structure rows and the per-c
    # sums of galois(2,6) none pays Field.vector: its one call is the unit's
    from gradedrings import linalg
    from gradedrings.serialize import algebra_from_json, algebra_to_json

    text = algebra_to_json(galois_skew_example(2, 6))
    calls = []
    real = linalg._prime_rows

    def counted(vector):
        return lambda xs: calls.append(None) or vector(xs)

    def counting_rows(field):
        return tuple(counted(f) if f.__name__ == "vector" else f for f in real(field))

    monkeypatch.setattr(linalg, "_prime_rows", counting_rows)
    alg = algebra_from_json(text)
    assert alg.field.p == 2 and len(alg.structure_items()) == 1296
    assert validate_algebra(alg).ok
    assert len(calls) == 1


# --- the sparse structure table ---------------------------------------------


def _random_scalar(field, rng):
    if field.p:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _reference_product(alg, x, y):
    """Flat x*y as the sum of x_i y_j product_coeffs(g, i, h, j)."""
    f, G = alg.field, alg.group
    out = [f.zero] * alg.dim
    for g, h in product(range(G.order), repeat=2):
        off = alg.offsets[G.mul(g, h)]
        for (i, xi), (j, yj) in product(enumerate(x.coeffs(g)), enumerate(y.coeffs(h))):
            for r, v in enumerate(product_coeffs(alg, g, i, h, j)):
                out[off + r] = field_add(f, out[off + r], f.mul(f.mul(xi, yj), v))
    return tuple(out)


def _random_algebra(field, rng):
    """(alg, structure): a random table, not associative in general, in
    which about a third of the given vectors are zero."""
    group = rng.choice([trivial_group(), cyclic_group(2), cyclic_group(3), symmetric_group(3)])
    dims = [rng.randint(0, 3) for _ in range(group.order)]
    dims[group.identity] = max(1, dims[group.identity])
    structure = {}
    for g, h in product(range(group.order), repeat=2):
        for i, j in product(range(dims[g]), range(dims[h])):
            if rng.random() < 0.5:
                d = dims[group.mul(g, h)]
                zero = rng.random() < 0.3
                vec = [0 if zero else _random_scalar(field, rng) for _ in range(d)]
                structure[(g, i, h, j)] = vec
    unit = [1] + [0] * (dims[group.identity] - 1)
    return GradedAlgebra(field, group, dims, structure, unit), structure


@given(st.integers(0, 2**30 - 1), st.sampled_from([GF(3), RATIONALS]))
@settings(max_examples=40, deadline=None)
def test_products_follow_sparse_table(seed, field):
    # zero vectors in the given table must read back as zero products
    rng = random.Random(seed)
    alg, structure = _random_algebra(field, rng)

    items = alg.structure_items()
    assert [key for key, _ in items] == sorted(key for key, _ in items)
    assert all(any(vec) for _, vec in items)
    assert dict(items) == {
        key: field.vector(vec) for key, vec in structure.items() if any(vec)
    }
    for key, vec in structure.items():
        assert product_coeffs(alg, *key) == field.vector(vec)
    for _ in range(4):
        x, y = (
            alg.from_flat([_random_scalar(field, rng) for _ in range(alg.dim)]) for _ in range(2)
        )
        assert alg.flatten(x * y) == _reference_product(alg, x, y)


@given(st.integers(0, 2**30 - 1), st.sampled_from([GF(3), RATIONALS]))
@settings(max_examples=40, deadline=None)
def test_element_arithmetic_follows_dense_vectors(seed, field):
    # Element keeps only the nonzero flat coordinates; every operation must
    # agree with dense flat arithmetic by the Field primitives
    rng = random.Random(seed)
    alg, _ = _random_algebra(field, rng)
    f, G = field, alg.group

    def sparse_vector():
        return f.vector(0 if rng.random() < 0.5 else _random_scalar(f, rng) for _ in range(alg.dim))

    u, v = sparse_vector(), sparse_vector()
    x, y = alg.from_flat(u), alg.from_flat(v)
    assert alg.flatten(x) == u and x.flat() == u and (not x.terms) == (not any(u))
    assert alg.flatten(x + y) == tuple(field_add(f, a, b) for a, b in zip(u, v))
    assert alg.flatten(x - y) == tuple(map(f.sub, u, v))
    assert alg.flatten(-x) == tuple(map(f.neg, u))
    c = _random_scalar(f, rng)
    assert alg.flatten(x.scale(c)) == tuple(f.scale(f.coerce(c), u))
    assert alg.flatten(c * x) == alg.flatten(x.scale(c))
    for g in range(G.order):
        lo, hi = alg.offsets[g], alg.offsets[g] + alg.comp_dims[g]
        assert x.coeffs(g) == u[lo:hi]
    assert x.support() == tuple(
        g for g in range(G.order) if any(u[alg.offsets[g] : alg.offsets[g] + alg.comp_dims[g]])
    )
    assert (x == y) == (u == v)
    twin = alg.from_flat(list(u))
    assert twin == x and hash(twin) == hash(x)
    assert x + y == y + x and hash(x + y) == hash(y + x)
    zero = x + (-x)
    assert zero == Element(alg, {}) and hash(zero) == hash(Element(alg, {})) and not zero.terms
    assert alg.flatten(x * y) == _reference_product(alg, x, y)


def test_sparse_table_allocates_no_dense_table():
    # a 1024-dimensional algebra with one nonzero product: a table with a slot
    # per basis pair would take megabytes
    n = 1024
    e0 = (1,) + (0,) * (n - 1)
    structure = {(0, 0, 0, 0): e0}
    tracemalloc.start()
    try:
        alg = GradedAlgebra(GF(2), trivial_group(), (n,), structure, e0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.structure_items() == [((0, 0, 0, 0), e0)]
    assert peak < 1_000_000


def test_graded_subspace_basics(m3_gf2):
    alg = m3_gf2
    gs = GradedSubspace.full(alg, (0,))
    assert gs.total_dim == 5
    assert tuple(sorted(gs.comps)) == (0,)
    assert gs.flat().dim == 5
    assert gs.flat().contains(alg.basis_element(0, 1).flat())
    assert not gs.flat().contains(alg.basis_element(1, 0).flat())


def test_graded_subspace_from_flat(gf2_z2):
    alg = gf2_z2
    graded = Subspace.from_vectors(GF(2), 2, [(1, 0)])
    not_graded = Subspace.from_vectors(GF(2), 2, [(1, 1)])
    gs = graded_subspace_from_flat(alg, graded)
    assert gs is not None and tuple(sorted(gs.comps)) == (0,)
    assert graded_subspace_from_flat(alg, not_graded) is None


def test_component_product_containment(m3_gf2):
    alg = m3_gf2
    # products of homogeneous elements land in the product component
    for g in range(2):
        for h in range(2):
            for i in range(alg.comp_dims[g]):
                for j in range(alg.comp_dims[h]):
                    x = alg.basis_element(g, i) * alg.basis_element(h, j)
                    assert x.support() in ((), (alg.group.mul(g, h),))


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=30, deadline=None)
def test_associativity_on_random_elements(seed):
    # the builders validate tables once; spot-check on random triples anyway
    alg = m3_example(GF(3))
    rng = random.Random(seed)
    x, y, z = (
        alg.from_flat([rng.randrange(3) for _ in range(alg.dim)]) for _ in range(3)
    )
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_full_matrix_algebra_is_dense_model():
    alg = full_matrix_algebra(RATIONALS, 2)
    # basis ordered e11, e12, e21, e22
    e11, e12, e21, e22 = (alg.basis_element(0, k) for k in range(4))
    assert e11 * e12 == e12
    assert e12 * e21 == e11
    assert e21 * e12 == e22
    assert not (e12 * e12).terms
    assert validate_algebra(alg).ok


# --- multiplication operators against Element products -----------------------


def _reference_ops(alg, multipliers, sources, coords):
    """(left, right) operators of each multiplier on the span of sources.

    Column j of an operator is the product with sources[j], computed by
    Element multiplication and read in coords.
    """
    def ops(product):
        return tuple(
            Matrix.from_columns(alg.field, [coords(product(b, x)) for x in sources])
            for b in multipliers
        )

    return ops(lambda b, x: b * x), ops(lambda b, x: x * b)


OPERATOR_INSTANCES = oracle_scale_corpus() + [
    Instance("m3-q", "matrix-grading", m3_example(RATIONALS)),
    Instance("q-z3", "group-algebra", group_algebra(RATIONALS, cyclic_group(3))),
]


@pytest.mark.parametrize("inst", OPERATOR_INSTANCES, ids=[i.name for i in OPERATOR_INSTANCES])
def test_operators_match_element_products(inst):
    alg = inst.alg
    G = alg.group
    e = G.identity

    def component(g):
        return [alg.basis_element(g, j) for j in range(alg.comp_dims[g])]

    for h in range(G.order):
        for g in range(G.order):
            if not alg.comp_dims[g]:
                continue
            lefts, rights = alg.mult_ops(h, g)
            hg, gh = G.table[h][g], G.table[g][h]
            ref_l, _ = _reference_ops(alg, component(h), component(g), lambda y: y.coeffs(hg))
            _, ref_r = _reference_ops(alg, component(h), component(g), lambda y: y.coeffs(gh))
            assert (lefts, rights) == (ref_l, ref_r)
            if h == e:
                assert alg.component_ops(g) == (lefts, rights)
    basis = [alg.basis_element(*alg.basis_of_flat(k)) for k in range(alg.dim)]
    flat = _reference_ops(alg, basis, basis, alg.flatten)
    assert (alg.flat_left_ops(), alg.flat_right_ops()) == flat
    assert alg.identity_ops() == _reference_ops(alg, component(e), basis, alg.flatten)
    for r in range(G.order + 1):
        for subset in combinations(range(G.order), r):
            members = [x for g in subset for x in component(g)]
            idx = [alg.offsets[g] + j for g in subset for j in range(alg.comp_dims[g])]
            cut = lambda y: tuple(alg.flatten(y)[k] for k in idx)  # noqa: E731
            assert alg.subset_ops(subset) == _reference_ops(alg, component(e), members, cut), subset


@pytest.mark.parametrize("inst", OPERATOR_INSTANCES, ids=[i.name for i in OPERATOR_INSTANCES])
def test_left_block_image_rank_is_the_component_product(inst):
    # check_strongly_graded reads dim R_g R_h as this rank; component_product
    # spans the same space from Element products
    alg = inst.alg
    G = alg.group
    for g in range(G.order):
        for h in range(G.order):
            prod = component_product(GradedSubspace.full(alg, (g,)), GradedSubspace.full(alg, (h,)))
            want = prod.component(G.table[g][h]).dim
            assert image_rank(alg.field, alg.mult_ops(g, h)[0]) == want, (g, h)
