"""Bimodule actions: spinning, simplicity, homomorphism spaces."""
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.algebra import GradedAlgebra, validate_algebra
from gradedrings.analysis import check_controlled, check_simple
from gradedrings import analysis
from gradedrings import bimodule
from gradedrings.bimodule import (
    QUICK_TRIALS,
    BimoduleAction,
    Verdict,
    _random_combination,
    _sampled_envelope_element,
    action_traces,
    are_isomorphic_simple,
    bimodules_isomorphic,
    component_action,
    envelope,
    find_invertible_combo,
    hom_matrices,
    hom_space,
    is_simple,
    rational_eigenvalues,
    regular_bimodule_action,
    spin,
)
from gradedrings.builders import (
    full_matrix_algebra,
    galois_skew_example,
    group_algebra,
    m3_example,
)
from gradedrings.corpus import dual_numbers_graded
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group, trivial_group
from gradedrings.linalg import GF, RATIONALS, EchelonBasis, Matrix, nullspace
from gradedrings.poly import minimal_polynomial


def test_verdict_semantics():
    assert Verdict.from_bool(True) is Verdict.TRUE
    assert Verdict.from_bool(False) is Verdict.FALSE
    assert Verdict.TRUE.decided and Verdict.FALSE.decided
    assert not Verdict.INCONCLUSIVE.decided


def test_component_actions_have_right_shapes(m3_gf2):
    a0 = component_action(m3_gf2, 0)
    a1 = component_action(m3_gf2, 1)
    assert a0.dim == 5 and a1.dim == 4
    assert len(a0.left_ops) == len(a0.right_ops) == 5


def test_spin_monotone_and_invariant(m3_gf2):
    act = component_action(m3_gf2, 1)
    got = spin(act, (1, 0, 0, 0))
    assert got.contains((1, 0, 0, 0))
    assert act.is_invariant(got)
    # e12 spins to the left column pair {e12, e32}
    assert got.dim == 2


def test_is_simple_positive(gf4skew):
    # each component of the Galois skew ring is a simple bimodule; its
    # envelope and its commutant are GF(4), so no shifted sample is
    # singular, and Burnside's theorem over the commutant decides
    for g in range(2):
        rep = is_simple(component_action(gf4skew, g))
        assert rep.verdict is Verdict.TRUE
        assert rep.method == "field-commutant"
        assert rep.trials <= QUICK_TRIALS


def test_is_simple_negative_with_witness(m3_gf2):
    rep = is_simple(component_action(m3_gf2, 0))
    assert rep.verdict is Verdict.FALSE
    w = rep.witness
    assert w is not None and 0 < w.dim < 5
    assert component_action(m3_gf2, 0).is_invariant(w)


def test_is_simple_rational_group_algebra(q_z2):
    # the regular action of Q[Z/2] on itself is not simple
    rep = is_simple(regular_bimodule_action(q_z2))
    assert rep.verdict is Verdict.FALSE


def test_simple_ring_regular_action(m3_gf2):
    rep = is_simple(regular_bimodule_action(m3_gf2))
    assert rep.verdict is Verdict.TRUE
    assert rep.method == "meataxe-norton"
    assert rep.trials >= 1


@pytest.mark.parametrize(
    "build",
    [lambda: m3_example(GF(2)), lambda: galois_skew_example(2, 4)],
    ids=["m3-gf2", "galois-2-4"],
)
def test_norton_decides_simple_rings_before_any_spin_search(build, monkeypatch):
    # Norton's test is a proof either way, so on a simple ring it decides
    # after a few nullspace spins, fewer than one spin per basis vector
    calls = []
    real_spin = bimodule.spin

    def counted(action, seed):
        calls.append(seed)
        return real_spin(action, seed)

    monkeypatch.setattr(bimodule, "spin", counted)
    act = regular_bimodule_action(build())
    rep = is_simple(act)
    assert rep.verdict is Verdict.TRUE
    assert rep.method == "meataxe-norton"
    assert len(calls) < act.dim


def test_spin_search_refutes_where_norton_has_no_shift():
    # over GF(65521) the sixteen sampled shifts miss every eigenvalue, so
    # the basis rows of the spin search refute the identity component
    rep = check_controlled(m3_example(GF(65521)))
    assert rep.verdict is Verdict.FALSE
    assert rep.witness["kind"] == "component-not-simple"


def test_dual_numbers_over_a_large_prime_are_refuted_quickly():
    start = time.perf_counter()
    rep = check_simple(dual_numbers_graded(GF(65521)))
    assert rep.verdict is Verdict.FALSE
    assert time.perf_counter() - start < 0.5


def test_rational_complex_structure_is_refuted_by_a_sampled_spin():
    # J^2 = -I has no rational eigenvalue, so no shift of an envelope
    # element is singular; e_1 spins to the invariant plane span(e_1, J e_1)
    f = RATIONALS
    j_plus_j = Matrix(f, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    ident = Matrix.identity(f, 4)
    act = BimoduleAction(f, 4, [ident, j_plus_j], [ident])
    rep = is_simple(act)
    assert rep.verdict is Verdict.FALSE
    assert rep.method == "sampled-spin"
    assert rep.witness.dim == 2
    assert act.is_invariant(rep.witness)


def test_large_prime_keeps_dense_envelope():
    # past p = 64 the sampled shifts rarely hit an eigenvalue, so the dense
    # envelope still certifies first
    rep = check_simple(full_matrix_algebra(GF(65521), 3))
    assert rep.holds()
    assert rep.method == "dense-envelope"


def test_sampled_elements_lie_in_envelope(m3_gf2, gf4skew):
    # Norton's criterion is only sound for members of the enveloping algebra
    rng = random.Random(7)
    for act in (
        regular_bimodule_action(m3_gf2),
        component_action(m3_gf2, 0),
        component_action(gf4skew, 1),
    ):
        _, mats = envelope(act)
        basis = EchelonBasis(act.field, act.dim * act.dim)
        for mat in mats:
            basis.add(mat.flatten())
        for _ in range(5):
            theta = _sampled_envelope_element(act, rng)
            assert theta.shape == (act.dim, act.dim)
            assert basis.contains(theta.flatten())


def test_hom_space_pins(m3_gf2, gf4skew):
    # distinct-dimension components admit no nonzero morphisms
    a0 = component_action(m3_gf2, 0)
    a1 = component_action(m3_gf2, 1)
    assert hom_space(a0, a1).dim == 0
    # endomorphisms of a component of the Galois ring: GF(4) line
    e0 = component_action(gf4skew, 0)
    assert hom_space(e0, e0).dim == 2


def test_isomorphic_components_of_group_algebra(gf2_z2):
    a0 = component_action(gf2_z2, 0)
    a1 = component_action(gf2_z2, 1)
    assert are_isomorphic_simple(a0, a1)
    assert bimodules_isomorphic(a0, a1).verdict is Verdict.TRUE


def test_nonisomorphic_components(gf4skew):
    a0 = component_action(gf4skew, 0)
    a1 = component_action(gf4skew, 1)
    assert not are_isomorphic_simple(a0, a1)
    assert bimodules_isomorphic(a0, a1).verdict is Verdict.FALSE


def test_unequal_traces_skip_the_hom_space(gf4skew, monkeypatch):
    # the Galois components are split by their traces alone
    import gradedrings.bimodule as bimodule

    def no_hom_space(a, b):
        raise AssertionError("hom_space should not be reached")

    monkeypatch.setattr(bimodule, "hom_space", no_hom_space)
    a0 = component_action(gf4skew, 0)
    a1 = component_action(gf4skew, 1)
    assert action_traces(a0) != action_traces(a1)
    assert not are_isomorphic_simple(a0, a1)


def test_identity_component_is_base_ring_over_itself():
    # R_e's simplicity as a ring is read off the identity component
    from gradedrings.corpus import standard_corpus

    for inst in standard_corpus():
        alg = inst.alg
        comp = component_action(alg, alg.group.identity)
        reg = regular_bimodule_action(alg.identity_component_algebra())
        assert comp.left_ops == reg.left_ops and comp.right_ops == reg.right_ops


def test_action_traces_invariant(gf2_z2):
    a0 = component_action(gf2_z2, 0)
    a1 = component_action(gf2_z2, 1)
    assert action_traces(a0) == action_traces(a1)


def test_traces_are_computed_once_per_component(monkeypatch):
    # four simple components, six pairs compared by Schur's lemma
    import gradedrings.bimodule as bimodule

    calls = []
    original = bimodule.action_traces

    def counting(action):
        calls.append(action.tag)
        return original(action)

    monkeypatch.setattr(bimodule, "action_traces", counting)
    alg = galois_skew_example(2, 4)
    profile = analysis._component_profile(alg, seed=0, budget=65536)
    rep = analysis._controlled_report(alg, profile, 0, 65536)
    assert rep.verdict is Verdict.TRUE
    assert sorted(calls) == ["R_0", "R_1", "R_2", "R_3"]


def _rational(rows):
    return Matrix(RATIONALS, [[Fraction(x) for x in row] for row in rows])


def test_rational_eigenvalues_mixed_signs_and_fractions():
    third, half = Fraction(1, 3), Fraction(1, 2)
    mat = _rational([[-3 * half, Fraction(1, 7), 4], [0, 2, -5 * third], [0, 0, third]])
    assert rational_eigenvalues(mat) == [Fraction(-3, 2), Fraction(1, 3), 2]


def test_rational_eigenvalues_of_a_rotation_are_none():
    assert rational_eigenvalues(_rational([[0, -1], [1, 0]])) == []


def test_rational_eigenvalues_of_a_jordan_block():
    assert rational_eigenvalues(_rational([[5, 1, 0], [0, 5, 1], [0, 0, 5]])) == [5]


def test_rational_eigenvalues_need_no_factoring():
    # (x - 1)(x - N) with N the least integer of more than 100,000 divisors:
    # a divisor search of the constant term would stall, the residues do not
    n = 2**8 * 3**4 * 5**2 * 7**2 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37  # 103,680 divisors
    companion = _rational([[0, -n], [1, n + 1]])
    assert rational_eigenvalues(companion) == [1, n]


def test_envelope_rank_m3(m3_gf2):
    # M3 x M3^op acts densely on the 9-dim regular module
    rank, mats = envelope(regular_bimodule_action(m3_gf2))
    assert rank == 81
    assert len(mats) == 81


def test_identity_action_matches_component_slices(m3_gf2):
    act = BimoduleAction(m3_gf2.field, m3_gf2.dim, *m3_gf2.identity_ops())
    assert act.dim == 9
    sub = spin(act, m3_gf2.flatten(m3_gf2.basis_element(1, 0)))
    assert sub.dim == 2


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=40, deadline=None)
def test_spin_contains_seed_and_is_invariant(seed):
    alg = m3_example(GF(2))
    act = BimoduleAction(alg.field, alg.dim, *alg.identity_ops())
    rng = random.Random(seed)
    vec = tuple(rng.randrange(2) for _ in range(9))
    got = spin(act, vec)
    if any(vec):
        assert got.contains(vec)
    assert act.is_invariant(got)


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=25, deadline=None)
def test_schur_style_dichotomy_on_simples(seed):
    # maps between the simple components of a group algebra are 0 or iso
    alg = group_algebra(GF(3), cyclic_group(3))
    rng = random.Random(seed)
    g, h = rng.randrange(3), rng.randrange(3)
    hs = hom_space(component_action(alg, g), component_action(alg, h))
    assert hs.dim >= 1  # all components isomorphic over the ground field
    assert are_isomorphic_simple(component_action(alg, g), component_action(alg, h))


def test_spin_of_an_unreduced_zero_seed_is_zero():
    action = regular_bimodule_action(group_algebra(GF(3), cyclic_group(2)))
    assert spin(action, (3, 0)).dim == 0


def test_spin_of_an_integer_seed_over_q_stays_exact():
    action = regular_bimodule_action(group_algebra(RATIONALS, cyclic_group(2)))
    w = spin(action, (2, 0))
    assert w.is_full()
    assert all(type(x) is Fraction for row in w.basis.entries for x in row)


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("field", [GF(3), RATIONALS], ids=str)
def test_elements_and_seeds_refuse_non_field_scalars(field, bad):
    alg = group_algebra(field, cyclic_group(2))
    with pytest.raises(InvalidInput):
        alg.element({0: (bad,)})
    with pytest.raises(InvalidInput):
        spin(regular_bimodule_action(alg), (bad, 0))


@pytest.mark.parametrize("field", [GF(5), RATIONALS], ids=str)
def test_random_combination_draws_one_scalar_per_matrix(field):
    rng = random.Random(3)
    mats = [
        Matrix(field, [[field.random_scalar(rng) for _ in range(3)] for _ in range(2)])
        for _ in range(4)
    ]
    got = _random_combination(field, mats, random.Random(7))
    draws = random.Random(7)
    want = [[field.zero] * 3 for _ in range(2)]
    for m in mats:
        c = field.random_scalar(draws)
        for i, row in enumerate(m.entries):
            for j, x in enumerate(row):
                want[i][j] = field.add(want[i][j], field.mul(c, x))
    assert got == Matrix(field, want)


def test_isomorphism_past_budget_samples_the_hom_space():
    # F[Z/2] over GF(3) is GF(3) x GF(3); in its idempotent basis the regular
    # action is diagonal, so the hom space is the diagonal matrices and both
    # of its basis rows (E11, E22) are singular: only a sampled sum is a unit
    f = GF(3)
    reg = regular_bimodule_action(group_algebra(f, cyclic_group(2)))
    q = Matrix.from_columns(f, [(2, 2), (2, 1)])  # e+ = -(1 + g), e- = -(1 - g)
    q_inv = Matrix.from_columns(f, [(1, 1), (1, 2)])
    assert (q @ q_inv).is_identity()
    diag = BimoduleAction(
        f, 2, [q_inv @ op @ q for op in reg.left_ops], [q_inv @ op @ q for op in reg.right_ops]
    )
    assert [m.entries for m in hom_matrices(diag, diag)] == [((1, 0), (0, 0)), ((0, 0), (0, 1))]
    for budget in (1, 4096):
        rep = bimodules_isomorphic(diag, diag, budget=budget)
        assert rep.verdict is Verdict.TRUE and rep.method == "invertible-hom"
        assert rep.hom_dim == 2
        w = rep.witness
        assert not nullspace(w).dim
        assert all(w @ op == op @ w for op in diag.ops)
        homs = hom_matrices(diag, diag)
        coeffs, _ = find_invertible_combo(f, homs, random.Random(0), budget=budget)
        assert Matrix(f, [[coeffs[0], 0], [0, coeffs[1]]]) == w


@pytest.mark.parametrize("budget", [1, 4096])
def test_invertible_search_forms_no_candidate_without_square_matrices(budget, monkeypatch):
    # a span of non-square matrices, or the zero span, has no invertible
    # member, so no combination is formed and no random scalar is drawn
    f = GF(3)
    calls = []
    monkeypatch.setattr(bimodule, "nullspace", lambda m: calls.append(m))
    tall = [Matrix(f, [[1, 0], [0, 1], [1, 1]]), Matrix(f, [[0, 1], [1, 0], [2, 0]])]
    for mats, exhausted in ((tall, budget >= 4), ([], True)):
        rng = random.Random(7)
        state = rng.getstate()
        assert find_invertible_combo(f, mats, rng, budget=budget) == (None, exhausted)
        assert rng.getstate() == state
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, 3).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n),
                    min_size=1,
                    max_size=3,
                )
            ),
        )
    )
)
def test_invertible_search_sweep_matches_brute_force(case):
    # a sweep of a span of square matrices finds an invertible member
    # exactly when one of the p^k combinations is nonsingular
    p, flats = case
    f = GF(p)
    n = round(len(flats[0]) ** 0.5)
    mats = [Matrix._unflatten(f, tuple(flat), n) for flat in flats]
    coeffs, exhausted = find_invertible_combo(f, mats, random.Random(0), budget=4096)
    assert exhausted

    def combo(c):
        return Matrix._unflatten(f, tuple(f.combine(c, flats)), n)

    exists = any(
        nullspace(combo(c)).dim == 0 for c in product(range(p), repeat=len(mats))
    )
    assert (coeffs is not None) == exists
    if coeffs is not None:
        assert nullspace(combo(coeffs)).dim == 0


def _quadratic_blocks(field, mult, entries):
    """A 2x2 matrix over a quadratic extension K of field, as a 4x4 matrix over field.

    Entries are pairs (a, b) for a + b s, where s generates K, and
    mult(a, b) is the 2x2 matrix of multiplication by a + b s on the basis
    1, s.
    """
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            blk = mult(*entries[i][j])
            for r in range(2):
                for c in range(2):
                    rows[2 * i + r][2 * j + c] = blk[r][c]
    return Matrix(field, rows)


def _gf4_blocks(entries):
    # GF(4) = GF(2)[w]/(w^2 + w + 1): w maps 1 -> w and w -> 1 + w
    return _quadratic_blocks(GF(2), lambda a, b: [[a, b], [b, (a + b) % 2]], entries)


def _matrix_units_over(blocks, triangular=False):
    """blocks(E_ij times 1 and times s), for the pairs (i, j) of M_2 or its upper triangle."""
    zero, one, s = (0, 0), (1, 0), (0, 1)
    out = []
    for i in range(2):
        for j in range(2):
            if triangular and i > j:
                continue
            for c in (one, s):
                entries = [[zero, zero], [zero, zero]]
                entries[i][j] = c
                out.append(blocks(entries))
    return out


def test_field_commutant_needs_the_full_rank():
    # upper triangular 2x2 matrices over GF(4) on GF(4)^2, seen over GF(2):
    # the commutant is GF(4), of degree 2, but the envelope has rank 6, not
    # 16/2, and GF(4) e_1 is a proper invariant subspace
    lefts = _matrix_units_over(_gf4_blocks, triangular=True)
    act = BimoduleAction(GF(2), 4, lefts, [Matrix.identity(GF(2), 4)])
    assert envelope(act)[0] == 6
    assert len(hom_matrices(act, act)) == 2
    for seed in range(4):
        rep = is_simple(act, seed=seed)
        assert rep.verdict is Verdict.FALSE
        assert rep.method != "field-commutant"


def _biquadratic_field():
    """Q(sqrt 2, sqrt 3) on the basis 1, s2, s3, s6, trivially graded."""
    # b_i b_j = c * b_k with the products of square roots
    table = {
        (0, 0): (1, 0), (1, 1): (2, 0), (2, 2): (3, 0), (3, 3): (6, 0),
        (1, 2): (1, 3), (1, 3): (2, 2), (2, 3): (3, 1),
    }
    structure = {}
    for i in range(4):
        for j in range(4):
            c, k = table.get((min(i, j), max(i, j)), (1, i + j))
            vec = [0] * 4
            vec[k] = c
            structure[(0, i, 0, j)] = vec
    return GradedAlgebra(RATIONALS, trivial_group(), (4,), structure, [1, 0, 0, 0])


def test_field_commutant_stays_honest_when_reducible_mod_every_prime():
    # the commutant is Q(sqrt 2, sqrt 3), a field of degree 4, but its
    # Galois group V4 has no 4-cycle, so the minimal polynomial of every
    # element (x^4 - 10x^2 + 1 for sqrt 2 + sqrt 3) is reducible mod every
    # prime and Gauss's lemma never applies
    alg = _biquadratic_field()
    assert validate_algebra(alg).ok
    act = regular_bimodule_action(alg)
    s2_plus_s3 = Matrix(RATIONALS, [[0, 2, 3, 0], [1, 0, 0, 3], [1, 0, 0, 2], [0, 1, 1, 0]])
    assert minimal_polynomial(s2_plus_s3) == [1, 0, -10, 0, 1]
    l2, l3 = act.left_ops[1].entries, act.left_ops[2].entries
    assert s2_plus_s3 == Matrix(
        RATIONALS, [[a + b for a, b in zip(r2, r3)] for r2, r3 in zip(l2, l3)]
    )
    rep = is_simple(act)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.method == "rational-sampling"


@pytest.mark.parametrize(
    "field,mult",
    [
        (RATIONALS, lambda a, b: [[a, -b], [b, a]]),  # Q(i)
        (GF(67), lambda a, b: [[a, 2 * b], [b, a]]),  # GF(67)(sqrt 2); 2 is no square mod 67
    ],
    ids=["q-i", "gf67-sqrt2"],
)
def test_field_commutant_of_degree_below_the_dimension(field, mult):
    # M_2(K) on K^2, seen over the ground field: a simple module whose
    # commutant K has degree 2 < 4, so C is built as a hom space; over Q
    # and for p > 64 no quick Norton trial runs first
    lefts = _matrix_units_over(lambda entries: _quadratic_blocks(field, mult, entries))
    act = BimoduleAction(field, 4, lefts, [Matrix.identity(field, 4)])
    rep = is_simple(act)
    assert rep.verdict is Verdict.TRUE
    assert rep.method == "field-commutant"
    assert rep.detail == "the commutant is a field and the envelope has rank 8 = 4^2/2"
