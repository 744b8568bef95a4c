"""Decision procedures on known instances, witnesses included."""
import time

import pytest

from gradedrings import analysis, bimodule
from gradedrings.algebra import GradedAlgebra, graded_subspace_from_flat
from gradedrings.algebra import is_invertible
from gradedrings.analysis import (
    CrossedProductData,
    centralizer_of_Re,
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
    is_inner,
    subring_correspondence,
    verify_crossed_identities,
)
from gradedrings.bimodule import (
    Verdict,
    component_action,
    is_simple,
    regular_bimodule_action,
)
from gradedrings.builders import (
    finite_field_algebra,
    full_matrix_algebra,
    galois_skew_example,
    group_algebra,
    inner_automorphism_matrix,
    m3_example,
    matrix_units_algebra,
    skew_group_ring,
)
from gradedrings.corpus import (
    checkerboard_m2,
    dual_numbers_graded,
    inner_conjugation_skew,
    oracle_scale_corpus,
    standard_corpus,
    twisted_galois_z2,
)
from gradedrings.errors import InternalInconsistency, InvalidInput
from gradedrings.groups import cyclic_group, trivial_group
from gradedrings.groups import symmetric_group
from gradedrings.linalg import GF, RATIONALS, Matrix, Subspace
from gradedrings.linalg import nullspace, projective_count, projective_vectors
from gradedrings.oracle import ideal_oracle
from references import vector_from_json, verify_crossed_reconstruction


# --------------------------------------------------------------------------
# validation, strength, degeneracy
# --------------------------------------------------------------------------


def test_check_valid(m3_gf2, gf4skew, q_z2):
    for alg in (m3_gf2, gf4skew, q_z2):
        assert check_valid(alg).holds()


@pytest.mark.parametrize(
    "alg,labels",
    [
        (galois_skew_example(2, 6), "x*u[0], 1*u[1]"),
        (full_matrix_algebra(RATIONALS, 5), "e11, e12, e13, e14, e15, e21, e31, e41, e51"),
        (group_algebra(RATIONALS, cyclic_group(3)), "u[1]"),
    ],
    ids=["galois-2-6", "M5-Q", "Q-Z3"],
)
def test_check_valid_by_the_left_nucleus(alg, labels):
    rep = check_valid(alg)
    assert rep.verdict is Verdict.TRUE and rep.method == "left-nucleus"
    assert rep.detail == (
        f"unit laws hold; the left nucleus contains 1 and S = {{{labels}}}, which generate R"
    )


def test_strongly_graded_positive(m3_gf2, gf4skew, gf2_z2):
    for alg in (m3_gf2, gf4skew, gf2_z2):
        assert check_strongly_graded(alg).holds()


def test_strongly_graded_negative_with_witness():
    alg = dual_numbers_graded(GF(2))
    rep = check_strongly_graded(alg)
    assert rep.verdict is Verdict.FALSE
    assert rep.witness is not None
    g, h = rep.witness["pair"]
    assert (g, h) == ("1", "1")


def test_nondegenerate(m3_gf2, gf4skew):
    assert check_nondegenerate(m3_gf2).holds()
    assert check_nondegenerate(gf4skew).holds()
    rep = check_nondegenerate(dual_numbers_graded(GF(3)))
    assert rep.verdict is Verdict.FALSE


def test_nondegenerate_with_a_zero_inverse_component():
    # F[x]/(x^2) over GF(2) graded by Z/3 with x in degree 1: R_2 = 0, so
    # the pairing R_1 x R_2 -> R_e kills all of R_1
    f = GF(2)
    structure = {(0, 0, 0, 0): (1,), (0, 0, 1, 0): (1,), (1, 0, 0, 0): (1,)}
    alg = GradedAlgebra(f, cyclic_group(3), (1, 1, 0), structure, (1,))
    assert check_valid(alg).holds()
    rep = check_nondegenerate(alg)
    assert rep.verdict is Verdict.FALSE
    assert rep.method == "pairing-kernel"
    assert rep.witness == {"component": "1", "side": "left", "element": [1]}


# --------------------------------------------------------------------------
# simplicity
# --------------------------------------------------------------------------


def test_simple_m3_both_fields(m3_gf2, m3_q):
    assert check_simple(m3_gf2).holds()
    rep = check_simple(m3_q)
    assert rep.holds()
    assert rep.method == "dense-envelope"


def test_simple_negative_group_algebras(gf2_z2, q_z2):
    for alg in (gf2_z2, q_z2):
        rep = check_simple(alg)
        assert rep.verdict is Verdict.FALSE
        assert rep.witness is not None
        assert 0 < rep.witness["dim"] < alg.dim


def test_graded_simple(m3_gf2, m3_q, gf2_z2, q_z2, gf4skew):
    # group algebras of Z/2 are graded simple even when not simple
    for alg in (m3_gf2, m3_q, gf2_z2, q_z2, gf4skew):
        rep = check_graded_simple(alg)
        assert rep.holds(), alg
    bad = dual_numbers_graded(GF(2))
    rep = check_graded_simple(bad)
    assert rep.verdict is Verdict.FALSE
    assert rep.witness["graded"] and rep.witness["component_dims"] == {"1": 1}


# --------------------------------------------------------------------------
# centralizer
# --------------------------------------------------------------------------


def test_centralizer_m3(m3_gf2, m3_q):
    for alg in (m3_gf2, m3_q):
        assert check_centralizer_condition(alg).holds()
        cent = centralizer_of_Re(alg)
        assert cent.total_dim == 2
        assert tuple(sorted(cent.comps)) == (0,)
        assert cent.component(alg.group.identity).dim == 2


def test_centralizer_fails_on_commutative_ring(gf2_z2):
    rep = check_centralizer_condition(gf2_z2)
    assert rep.verdict is Verdict.FALSE
    assert rep.witness["component"] == "1"


def test_centralizer_holds_on_checkerboard():
    # R_e is commutative but nothing outside it centralizes
    assert check_centralizer_condition(checkerboard_m2(GF(3))).holds()


# --------------------------------------------------------------------------
# controlled
# --------------------------------------------------------------------------


def test_controlled_m3_negative(m3_gf2, m3_q):
    for alg in (m3_gf2, m3_q):
        rep = check_controlled(alg)
        assert rep.verdict is Verdict.FALSE
        assert rep.witness["kind"] == "component-not-simple"
        # a proper, nonzero sub-bimodule of R_0 that the action keeps
        rows = [vector_from_json(alg.field, v) for v in rep.witness["sub_bimodule"]["basis"]]
        sub = Subspace.from_vectors(alg.field, alg.comp_dims[0], rows)
        assert 0 < sub.dim < alg.comp_dims[0]
        assert component_action(alg, 0).is_invariant(sub)


def test_controlled_positive(gf4skew):
    rep = check_controlled(gf4skew)
    assert rep.verdict is Verdict.TRUE
    assert set(rep.fields["simplicity"].values()) == {"true"}
    assert {v for _, _, v in rep.fields["isomorphic"]} == {"false"}


def test_controlled_group_algebra_negative(gf2_z2):
    rep = check_controlled(gf2_z2)
    assert rep.verdict is Verdict.FALSE
    assert rep.witness["kind"] == "isomorphic-pair"


def test_controlled_zero_component_is_false():
    alg = group_algebra(GF(2), cyclic_group(1))
    from gradedrings.corpus import dead_component_line

    rep = check_controlled(dead_component_line(GF(2)))
    assert rep.verdict is Verdict.FALSE
    assert rep.witness["kind"] == "zero-component"
    assert check_controlled(alg).verdict is Verdict.TRUE


# --------------------------------------------------------------------------
# necessary conditions
# --------------------------------------------------------------------------


def test_necessary_conditions_positive(gf4skew):
    rep = check_necessary_conditions(gf4skew)
    assert rep.holds()
    names = {p.check for p in rep.parts}
    assert names == {
        "pairwise-non-isomorphic",
        "components-simple",
        "identity-simple-ring",
        "centralizer-is-center",
        "ideals-graded",
    }
    assert all(p.verdict is Verdict.TRUE for p in rep.parts)


def test_necessary_conditions_m3(m3_gf2):
    rep = check_necessary_conditions(m3_gf2)
    assert rep.verdict is Verdict.FALSE
    by_name = {p.check: p.verdict for p in rep.parts}
    assert by_name["components-simple"] is Verdict.FALSE
    assert by_name["identity-simple-ring"] is Verdict.FALSE
    assert by_name["centralizer-is-center"] is Verdict.TRUE
    assert by_name["pairwise-non-isomorphic"] is Verdict.TRUE
    assert by_name["ideals-graded"] is Verdict.TRUE


def test_necessary_conditions_skip_ideals_over_q(m3_q):
    rep = check_necessary_conditions(m3_q)
    by_name = {p.check: p.verdict for p in rep.parts}
    assert by_name["ideals-graded"] is Verdict.SKIPPED
    assert rep.verdict is Verdict.FALSE  # decided parts already refute


# which route decides leg (v) on each oracle-scale instance
IDEALS_GRADED_METHODS = {
    "ungraded-ideal": {
        "gf2-z2", "gf2-z3", "gf2-z4", "gf2-v4", "gf2-s3", "gf2-z5",
        "gf3-z2", "gf3-z3", "gf3-z4", "gf3-v4", "gf3-s3",
        "gf3-z3-coboundary", "gf3-z4-twisted", "gf3-v4-coboundary",
        "gf2-m2-inner", "gf3-m2-inner", "gf2-untwisted-ext",
    },
    "simple-ring": {
        "gf3-z2-twisted", "gf3-v4-twisted", "gf2-split-swap", "gf3-split-swap",
        "gf2-dead-component", "gf2-m2-checkerboard", "gf3-m2-checkerboard", "gf2-m3",
    },
    "controlled-components": {
        "galois-2-2", "galois-3-2", "galois-3-2-twisted", "gf2-point",
        "gf2-m2", "gf3-m2", "gf2-field-ext",
    },
    "cyclic-ideals": {"gf2-dual-numbers", "gf3-dual-numbers", "gf2-upper-triangular"},
}
ORACLE_SCALE = oracle_scale_corpus()


def test_ideals_graded_methods_cover_the_corpus():
    names = [name for group in IDEALS_GRADED_METHODS.values() for name in group]
    assert sorted(names) == sorted(inst.name for inst in ORACLE_SCALE)


@pytest.mark.parametrize("inst", ORACLE_SCALE, ids=[inst.name for inst in ORACLE_SCALE])
def test_ideals_graded_leg_agrees_with_ideal_oracle(inst):
    alg = inst.alg
    leg = check_necessary_conditions(alg).parts[-1]
    assert leg.check == "ideals-graded"
    assert leg.verdict is Verdict.from_bool(all(graded for _, graded in ideal_oracle(alg)))
    assert inst.name in IDEALS_GRADED_METHODS[leg.method]
    if leg.method == "ungraded-ideal":
        _assert_ungraded_ideal(alg, leg.witness)


def _assert_ungraded_ideal(alg, witness):
    rows = [vector_from_json(alg.field, v) for v in witness["ideal"]["basis"]]
    ideal = Subspace.from_vectors(alg.field, alg.dim, rows)
    assert 0 < ideal.dim < alg.dim
    assert regular_bimodule_action(alg).is_invariant(ideal)
    assert graded_subspace_from_flat(alg, ideal) is None


@pytest.mark.parametrize("inst", ORACLE_SCALE, ids=[inst.name for inst in ORACLE_SCALE])
def test_ideals_graded_spin_sweep_agrees_with_ideal_oracle(inst):
    # called directly, so the FALSE branch runs where the certificates
    # would decide first
    alg = inst.alg
    leg = analysis._ideals_graded_by_spins(alg, 0, 65536)
    assert leg.method == "cyclic-ideals"
    assert leg.verdict is Verdict.from_bool(all(graded for _, graded in ideal_oracle(alg)))
    if leg.verdict is Verdict.FALSE:
        _assert_ungraded_ideal(alg, leg.witness)


def test_ideals_graded_spin_sweep_skips_what_it_cannot_sweep():
    for alg, budget in (
        (dual_numbers_graded(GF(2)), 1),
        (group_algebra(RATIONALS, cyclic_group(3)), 65536),
    ):
        leg = analysis._ideals_graded_by_spins(alg, 0, budget)
        assert (leg.verdict, leg.method) == (Verdict.SKIPPED, "cyclic-ideals")


def test_ideals_graded_over_q_runs_only_the_component_profile(monkeypatch):
    calls = []
    real = analysis.is_simple

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "is_simple", counted)
    cases = [
        (full_matrix_algebra(RATIONALS, 3), Verdict.TRUE, "controlled-components"),
        (m3_example(RATIONALS), Verdict.SKIPPED, "cyclic-ideals"),
        (group_algebra(RATIONALS, cyclic_group(3)), Verdict.SKIPPED, "cyclic-ideals"),
    ]
    for alg, verdict, method in cases:
        calls.clear()
        leg = check_necessary_conditions(alg).parts[-1]
        assert (leg.verdict, leg.method) == (verdict, method)
        necessary_calls = len(calls)
        calls.clear()
        analysis._component_profile(alg, seed=0, budget=65536)
        assert necessary_calls == len(calls) > 0


# --------------------------------------------------------------------------
# crossed products
# --------------------------------------------------------------------------


def test_crossed_product_m3_exhaustive(m3_gf2):
    rep = detect_crossed_product(m3_gf2)
    assert rep.verdict is Verdict.FALSE
    assert rep.fields["proof_scope"] == "exhaustive"


@pytest.mark.parametrize("inst", ORACLE_SCALE, ids=[inst.name for inst in ORACLE_SCALE])
def test_units_of_a_component_are_its_nonsingular_pairing_blocks(inst):
    # the inverse of a unit u in R_g lies in R_{g^-1}, so u is a unit exactly
    # when x -> u x maps R_{g^-1} onto R_e bijectively: the block that
    # detect_crossed_product searches
    alg = inst.alg
    f, G = alg.field, alg.group
    for g in range(G.order):
        d = alg.comp_dims[g]
        if g == G.identity or projective_count(f.p, d) > 121:
            continue
        blocks = alg.mult_ops(g, G.inv(g))[0]
        width = alg.comp_dims[G.inv(g)]
        for c in projective_vectors(f, Matrix.identity(f, d).entries):
            rows = [f.combine(c, [b.row(i) for b in blocks]) for i in range(blocks[0].rows)]
            block = Matrix(f, rows, cols=width)
            nonsingular = block.rows == block.cols and nullspace(block).dim == 0
            assert (is_invertible(alg.element({g: c})) is not None) == nonsingular, (g, c)


def test_crossed_product_sweep_of_non_square_blocks_is_immediate():
    # R_(021) is a plane over GF(65521) whose blocks are 3 x 2: its 65,522
    # projective points fit the budget, and none of them needs forming
    alg = matrix_units_algebra(GF(65521), symmetric_group(3), (0, 1, 2))
    start = time.perf_counter()
    rep = detect_crossed_product(alg)
    assert time.perf_counter() - start < 1.0
    assert rep.verdict is Verdict.FALSE
    assert rep.fields["proof_scope"] == "exhaustive"


def test_crossed_product_sweep_of_a_nilpotent_component_stops_at_once(monkeypatch):
    # F[x]/(x^4) over GF(65521), graded by Z/2: R_1 = span(x, x^3) has
    # square 2 x 2 blocks whose columns span only x^2, so after the first
    # candidate fails no other of the 65,522 points is formed
    f = GF(65521)
    structure = {
        (0, 0, 0, 0): (1, 0), (0, 0, 0, 1): (0, 1), (0, 0, 1, 0): (1, 0), (0, 0, 1, 1): (0, 1),
        (0, 1, 0, 0): (0, 1), (0, 1, 1, 0): (0, 1),  # x^2 * x = x^3
        (1, 0, 0, 0): (1, 0), (1, 1, 0, 0): (0, 1),
        (1, 0, 0, 1): (0, 1), (1, 0, 1, 0): (0, 1),  # x * x^2 = x^3, x * x = x^2
    }
    alg = GradedAlgebra(f, cyclic_group(2), (2, 2), structure, (1, 0))
    assert check_valid(alg).holds()
    calls = []
    nullspace = bimodule.nullspace
    monkeypatch.setattr(bimodule, "nullspace", lambda m: calls.append(m) or nullspace(m))
    rep = detect_crossed_product(alg)
    assert rep.verdict is Verdict.FALSE
    assert rep.fields["proof_scope"] == "exhaustive"
    assert len(calls) <= 1


@pytest.mark.parametrize("field", [GF(2), GF(65521), RATIONALS], ids=str)
def test_crossed_product_of_a_component_with_zero_inverse_component(field):
    # F[x]/(x^2) graded by Z/3 with x in R_1: x x lies in R_2 = 0, so the
    # blocks of R_1 map the zero space R_2 into R_e and are 1 x 0
    one = field.one
    structure = {(0, 0, 0, 0): (one,), (0, 0, 1, 0): (one,), (1, 0, 0, 0): (one,)}
    alg = GradedAlgebra(field, cyclic_group(3), (1, 1, 0), structure, (one,))
    assert check_valid(alg).holds()
    assert [b.shape for b in alg.mult_ops(1, 2)[0]] == [(1, 0)]
    rep = detect_crossed_product(alg)
    assert rep.verdict is Verdict.FALSE
    assert rep.fields["proof_scope"] == "exhaustive"
    # past the budget the pairing obstruction decides: R_1 R_2 = 0
    rep = detect_crossed_product(alg, budget=0)
    assert rep.verdict is Verdict.FALSE
    assert rep.fields["proof_scope"] == "degenerate-pair"
    with pytest.raises(InvalidInput):
        check_crossed_controlled(alg)


def test_crossed_product_m3_rational(m3_q):
    rep = detect_crossed_product(m3_q)
    assert rep.verdict is Verdict.FALSE
    assert rep.fields["proof_scope"] == "character"


def test_crossed_product_positive_with_data(gf4skew):
    rep = detect_crossed_product(gf4skew)
    assert rep.verdict is Verdict.TRUE
    assert rep.fields["proof_scope"] == "constructive"
    assert rep.data is not None
    verify_crossed_identities(gf4skew, rep.data)
    assert verify_crossed_reconstruction(gf4skew, rep.data) is None


def test_crossed_product_group_algebra(q_z2):
    rep = detect_crossed_product(q_z2)
    assert rep.verdict is Verdict.TRUE
    verify_crossed_identities(q_z2, rep.data)
    assert verify_crossed_reconstruction(q_z2, rep.data) is None


def test_components_with_a_unit_have_the_side_traces_of_the_identity_component():
    # the one-sided traces refute a unit only if every crossed product passes them
    crossed = 0
    for inst in standard_corpus():
        alg = inst.alg
        if detect_crossed_product(alg).verdict is not Verdict.TRUE:
            continue
        crossed += 1
        e_traces = analysis._side_traces(component_action(alg, alg.group.identity))
        for g in range(alg.group.order):
            assert analysis._side_traces(component_action(alg, g)) == e_traces, (inst.name, g)
    assert crossed >= 20


def test_crossed_data_nontrivial_cocycle():
    alg = twisted_galois_z2(3, 2)
    rep = detect_crossed_product(alg)
    assert rep.verdict is Verdict.TRUE
    verify_crossed_identities(alg, rep.data)
    assert verify_crossed_reconstruction(alg, rep.data) is None


def _broken(data, sigma=None, alpha=None):
    return CrossedProductData(
        data.units, {**data.sigma, **(sigma or {})}, {**data.alpha, **(alpha or {})}
    )


def test_verify_crossed_identities_rejects_scaled_cocycle():
    alg = group_algebra(RATIONALS, cyclic_group(3))
    data = detect_crossed_product(alg).data
    verify_crossed_identities(alg, data)
    f = alg.field
    doubled = {(1, 1): tuple(f.scale(f.coerce(2), data.alpha[(1, 1)]))}
    with pytest.raises(InternalInconsistency, match="cocycle identity fails"):
        verify_crossed_identities(alg, _broken(data, alpha=doubled))
    doubled = {(0, 1): tuple(f.scale(f.coerce(2), data.alpha[(0, 1)]))}
    with pytest.raises(InternalInconsistency, match="alpha must be normalized"):
        verify_crossed_identities(alg, _broken(data, alpha=doubled))


def test_verify_crossed_identities_rejects_swapped_sigma():
    alg = galois_skew_example(2, 4)
    data = detect_crossed_product(alg).data
    verify_crossed_identities(alg, data)
    swapped = {1: data.sigma[2], 2: data.sigma[1]}
    with pytest.raises(InternalInconsistency, match="twisted composition"):
        verify_crossed_identities(alg, _broken(data, sigma=swapped))
    swapped = {0: data.sigma[1], 1: data.sigma[0]}
    with pytest.raises(InternalInconsistency, match="sigma at the identity"):
        verify_crossed_identities(alg, _broken(data, sigma=swapped))


# --------------------------------------------------------------------------
# inner and outer automorphisms
# --------------------------------------------------------------------------


def test_is_inner_detects_conjugation():
    base = full_matrix_algebra(GF(2), 2)
    w = base.element({0: (0, 1, 1, 0)})
    sigma = inner_automorphism_matrix(base, w)
    rep = is_inner(base, sigma, base_simple=is_simple(regular_bimodule_action(base)).verdict)
    assert rep.verdict is Verdict.TRUE
    u = base.element({0: tuple(rep.witness["element"])})
    # the witness really conjugates: u b = sigma(b) u on basis elements
    for k in range(4):
        b = base.basis_element(0, k)
        sb = base.element({0: sigma.apply(base.flatten(b))})
        assert u * b == sb * u


def test_is_inner_rejects_frobenius():
    base, frob = finite_field_algebra(2, 2)
    rep = is_inner(base, frob, base_simple=is_simple(regular_bimodule_action(base)).verdict)
    assert rep.verdict is Verdict.FALSE


def test_crossed_controlled_three_routes(gf4skew):
    rep = check_crossed_controlled(gf4skew)
    assert rep.holds()
    assert [p.verdict for p in rep.parts] == [Verdict.TRUE] * 3


def test_crossed_controlled_group_algebra(gf2_z2):
    rep = check_crossed_controlled(gf2_z2)
    assert rep.verdict is Verdict.FALSE
    assert all(p.verdict is Verdict.FALSE for p in rep.parts if p.verdict.decided)


def test_crossed_controlled_gate(m3_gf2):
    with pytest.raises(InvalidInput):
        check_crossed_controlled(m3_gf2)


# --------------------------------------------------------------------------
# Picard injectivity and subrings
# --------------------------------------------------------------------------


def test_picard_injective(m3_gf2, gf4skew, gf2_z2):
    assert check_picard_injective(m3_gf2).holds()
    assert check_picard_injective(gf4skew).holds()
    rep = check_picard_injective(gf2_z2)
    assert rep.verdict is Verdict.FALSE


def test_picard_gate_needs_strong_gradation():
    with pytest.raises(InvalidInput):
        check_picard_injective(dual_numbers_graded(GF(2)))


def test_subring_correspondence_gf4(gf4skew):
    rep = subring_correspondence(gf4skew)
    assert rep.verdict is Verdict.TRUE
    assert rep.fields["count"] == 2
    names = [n for n, _ in rep.data]
    assert names == [("0",), ("0", "1")]
    dims = [s.total_dim for _, s in rep.data]
    assert dims == [2, 4]


def test_subring_correspondence_z4_tower():
    alg = galois_skew_example(2, 4)
    rep = subring_correspondence(alg)
    assert rep.fields["count"] == 3
    assert [n for n, _ in rep.data] == [("0",), ("0", "2"), ("0", "1", "2", "3")]
    assert [s.total_dim for _, s in rep.data] == [4, 8, 16]


def test_subring_gate_refuses_uncontrolled(m3_gf2, gf2_z2):
    for alg in (m3_gf2, gf2_z2):
        with pytest.raises(InvalidInput):
            subring_correspondence(alg)


# --------------------------------------------------------------------------
# sampled searches: a span with more projective points than the budget
# --------------------------------------------------------------------------


def _cyclic_group_algebra_ungraded(field, n):
    """F[Z/n] on the trivial group, basis t^0, ..., t^(n-1)."""
    structure = {
        (0, a, 0, b): [1 if k == (a + b) % n else 0 for k in range(n)]
        for a in range(n)
        for b in range(n)
    }
    return GradedAlgebra(field, trivial_group(), (n,), structure, [1] + [0] * (n - 1))


def test_graded_simple_past_budget_is_decided():
    # GF(16) ⋊ Z/4: each 4-dim component has 15 projective points, over 8,
    # and the 16-dim ring is decided without sweeping either
    rep = check_graded_simple(galois_skew_example(2, 4), budget=8)
    assert rep.verdict is Verdict.TRUE
    assert rep.budget == 8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rational_group_algebra_on_the_trivial_group_is_not_graded_simple(n):
    # on the trivial group every ideal is graded, and Q[Z/n] splits off the
    # augmentation ideal; the homogeneous sweep could not sweep Q^n
    alg = _cyclic_group_algebra_ungraded(RATIONALS, n)
    rep = check_graded_simple(alg)
    assert rep.verdict is Verdict.FALSE
    assert rep.witness["graded"] and 0 < rep.witness["dim"] < n


def _m2_rationals_skew_z3():
    """M2(Q) ⋊ Z/3 under conjugation by an order-3 matrix (an inner action)."""
    base = full_matrix_algebra(RATIONALS, 2)
    sigma = inner_automorphism_matrix(base, base.element({0: (0, -1, 1, -1)}))
    return skew_group_ring(
        base, cyclic_group(3), [Matrix.identity(RATIONALS, 4), sigma, sigma @ sigma]
    )


@pytest.mark.parametrize(
    "make",
    [lambda: inner_conjugation_skew(RATIONALS), _m2_rationals_skew_z3],
    ids=["q-m2-inner-z2", "q-m2-inner-z3"],
)
def test_inner_skew_rings_over_q_finish(make):
    # neither ring is simple (an inner action splits off a group algebra)
    # and both are graded simple; Norton's test over Q may not decide, but
    # the rational eigenvalue search must not stall on huge constant terms.
    # Graded simplicity follows from the nondegenerate grading and R_e = M2(Q)
    alg = make()
    assert check_simple(alg).verdict in (Verdict.FALSE, Verdict.INCONCLUSIVE)
    rep = check_graded_simple(alg)
    assert (rep.verdict, rep.method) == (Verdict.TRUE, "nondegenerate-simple-base")


def _square_zero_radical_in_units(f):
    """F[s, t]/(s, t)^2 on the trivial group, in the basis 1, 1 + s, 1 + t.

    The envelope of the regular action is the multiplications by a + n,
    n in the radical: the one eigenvalue is a, and for n != 0 the nullspace
    of the shift by a is the radical, a plane of p + 1 lines.  Each basis
    vector is a unit and spins to the whole ring."""
    structure = {(0, 0, 0, j): [int(k == j) for k in range(3)] for j in range(3)}
    structure.update({(0, i, 0, 0): [int(k == i) for k in range(3)] for i in range(3)})
    structure.update({(0, 1, 0, 1): [-1, 2, 0], (0, 2, 0, 2): [-1, 0, 2]})
    structure.update({(0, 1, 0, 2): [-1, 1, 1], (0, 2, 0, 1): [-1, 1, 1]})
    return GradedAlgebra(f, trivial_group(), (3,), structure, [1, 0, 0])


def _split_twisted_by_the_swap(f):
    """(F x F) ⋊ Z/2, F x F in the basis 1, t, and the swap of its
    idempotents as t -> -t."""
    swap = Matrix(f, [[1, 0], [0, -1]])
    base = _cyclic_group_algebra_ungraded(f, 2)
    return skew_group_ring(base, cyclic_group(2), [Matrix.identity(f, 2), swap])


def _local_twisted_by_the_sign(f):
    """`_square_zero_radical_in_units` ⋊ Z/2 by s, t -> -s, -t, which maps
    1 + s to 2 - (1 + s)."""
    sigma = Matrix(f, [[1, 2, 2], [0, -1, 0], [0, 0, -1]])
    base = _square_zero_radical_in_units(f)
    return skew_group_ring(base, cyclic_group(2), [Matrix.identity(f, 3), sigma])


def test_simple_past_budget_is_inconclusive():
    # GF(16) over itself: no shift is singular, but a quick trial element
    # that generates the field decides, so the sweep's budget does not matter
    base, _ = finite_field_algebra(2, 4)
    rep = check_simple(base, budget=8)
    assert rep.verdict is Verdict.TRUE
    assert rep.method == "irreducible-element"
    # F[t]/(t^2 - 1) over GF(65521) is F x F: a quick trial's shift by an
    # eigenvalue has a line as nullspace, which refutes at any budget
    split = _cyclic_group_algebra_ungraded(GF(65521), 2)
    rep = check_simple(split, budget=8)
    assert (rep.verdict, rep.method) == (Verdict.FALSE, "meataxe-spin")
    # the radical's 65,522 lines are past NULLSPACE_BUDGET, the basis rows
    # and the sampled vectors spin to the whole ring, and the commutant is
    # the ring itself, no field, so only the projective sweep could decide
    local = _square_zero_radical_in_units(GF(65521))
    assert check_valid(local).holds()
    rep = check_simple(local, budget=8)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.method == "budget"
    assert "exceeds 8 points" in rep.detail


def test_controlled_past_budget_is_inconclusive():
    # both components of (F x F) ⋊ Z/2 over GF(65521) split like F x F
    # above, and a quick trial refutes them at any budget
    f = GF(65521)
    assert check_controlled(_split_twisted_by_the_swap(f), budget=8).verdict is Verdict.FALSE
    # the local ring above twisted by its sign: neither component is decided
    rep = check_controlled(_local_twisted_by_the_sign(f), budget=8)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert set(rep.fields["simplicity"].values()) == {"inconclusive"}
    assert rep.fields["isomorphic"] == [["0", "1", "inconclusive"]]


def test_is_inner_past_budget_samples_the_intertwiners():
    # F[Z/4] over GF(2) is local, so it is not simple and the search runs
    base = _cyclic_group_algebra_ungraded(GF(2), 4)
    base_simple = is_simple(regular_bimodule_action(base)).verdict
    assert base_simple is Verdict.FALSE
    identity = Matrix.identity(GF(2), 4)
    # every element intertwines the identity; the first basis row is 1
    rep = is_inner(base, identity, base_simple=base_simple, budget=2)
    assert rep.verdict is Verdict.TRUE
    assert rep.method == "intertwiner-search"
    assert rep.witness == {"element": [1, 0, 0, 0]}
    # t -> t^-1: V is the ideal (1 + t)^2, a plane with no unit in it
    inversion = Matrix.from_columns(
        GF(2), [[1 if k == (-j) % 4 else 0 for k in range(4)] for j in range(4)]
    )
    swept = is_inner(base, inversion, base_simple=base_simple)
    assert swept.verdict is Verdict.FALSE
    assert "exhaustive" in swept.detail
    sampled = is_inner(base, inversion, base_simple=base_simple, budget=2)
    assert sampled.verdict is Verdict.INCONCLUSIVE
    assert sampled.method == "intertwiner-search"


def _gaussian_rationals_skew_z2():
    """Q(i) ⋊ Z/2 under complex conjugation (isomorphic to M2(Q))."""
    f = RATIONALS
    # basis 1, i: i*i = -1
    structure = {(0, 0, 0, 0): [1, 0], (0, 0, 0, 1): [0, 1], (0, 1, 0, 0): [0, 1], (0, 1, 0, 1): [-1, 0]}
    base = GradedAlgebra(f, trivial_group(), (2,), structure, [1, 0])
    conj = Matrix(f, [[1, 0], [0, -1]])
    return skew_group_ring(base, cyclic_group(2), [Matrix.identity(f, 2), conj])


@pytest.mark.parametrize(
    "make, budget",
    [(_gaussian_rationals_skew_z2, 65536), (lambda: galois_skew_example(2, 4), 8)],
    ids=["q-i-conjugation", "galois-2-4-budget-8"],
)
def test_crossed_product_with_outer_action_past_budget(make, budget):
    # R_g = R_e u twists R_e by conjugation with u, so the traces of L_i R_j
    # differ from R_e's when sigma_g is outer; only the one-sided traces of
    # L_b and R_b must agree, and here they do
    alg = make()
    rep = detect_crossed_product(alg, budget=budget)
    assert rep.verdict is Verdict.TRUE
    assert rep.fields["proof_scope"] == "constructive"
    verify_crossed_identities(alg, rep.data)
    assert verify_crossed_reconstruction(alg, rep.data) is None


def test_gaussian_skew_ring_is_simple():
    # strongly graded, R_e = Q(i) simple, and nothing outside R_e centralizes it
    rep = check_simple(_gaussian_rationals_skew_z2())
    assert (rep.verdict, rep.method) == (Verdict.TRUE, "strong-controlled")


def test_crossed_controlled_on_gaussian_skew_ring():
    # refused as "not a crossed product" while the trace obstruction was wrong
    rep = check_crossed_controlled(_gaussian_rationals_skew_z2())
    assert rep.verdict is not Verdict.FALSE


def _sqrt2_skew_z2():
    """Q(sqrt 2) ⋊ Z/2 under sqrt 2 -> -sqrt 2 (isomorphic to M2(Q))."""
    f = RATIONALS
    # basis 1, s: s*s = 2
    structure = {(0, 0, 0, 0): [1, 0], (0, 0, 0, 1): [0, 1], (0, 1, 0, 0): [0, 1], (0, 1, 0, 1): [2, 0]}
    base = GradedAlgebra(f, trivial_group(), (2,), structure, [1, 0])
    conj = Matrix(f, [[1, 0], [0, -1]])
    return skew_group_ring(base, cyclic_group(2), [Matrix.identity(f, 2), conj])


@pytest.mark.parametrize(
    "make",
    [_gaussian_rationals_skew_z2, _sqrt2_skew_z2, lambda: galois_skew_example(5, 7)],
    ids=["q-i-conjugation", "q-sqrt2-conjugation", "galois-5-7"],
)
def test_galois_skew_rings_are_controlled(make):
    # Azumaya's case: every component is a simple bimodule whose commutant
    # is the extension field, which no shift of Norton's test can see;
    # galois(5,7) has 5^7 points per component, past any spin sweep
    rep = check_controlled(make())
    assert rep.verdict is Verdict.TRUE
    assert set(rep.fields["simplicity"].values()) == {"true"}


def test_component_of_galois_3_11_is_decided():
    # 3^11 - 1 nonzero vectors: past the default budget of the spin sweep
    rep = is_simple(component_action(galois_skew_example(3, 11), 1))
    assert rep.verdict is Verdict.TRUE
    assert rep.method == "irreducible-element"


# --------------------------------------------------------------------------
# theorem steps against the routes they stand in front of
# --------------------------------------------------------------------------


# every corpus instance and the five ladder-gfp rings
STEP_CASES = [(inst.name, inst.alg) for inst in standard_corpus()] + [
    ("galois-2-4", galois_skew_example(2, 4)),
    ("galois-2-6", galois_skew_example(2, 6)),
    ("galois-3-3", galois_skew_example(3, 3)),
    ("m3-gf2", m3_example(GF(2))),
    ("m3-gf3", m3_example(GF(3))),
]


def _without_method(rep) -> dict:
    out = rep.to_json()
    del out["method"]
    return out


@pytest.mark.parametrize("alg", [a for _, a in STEP_CASES], ids=[n for n, _ in STEP_CASES])
def test_theorem_steps_agree_with_the_routes_behind_them(alg):
    seed, budget = 0, 65536
    graded = check_graded_simple(alg)
    if graded.method == "nondegenerate-simple-base":
        route = analysis._ideal_check(
            "graded-simple", alg, bimodule.graded_regular_action(alg), seed, budget
        )
        assert route.verdict is graded.verdict is Verdict.TRUE
    simple = check_simple(alg)
    if simple.method == "strong-controlled":
        route = analysis._ideal_check("simple", alg, regular_bimodule_action(alg), seed, budget)
        assert route.verdict is simple.verdict is Verdict.TRUE
    profile = analysis._component_profile(alg, seed=seed, budget=budget)
    controlled = check_controlled(alg)
    if controlled.method == "strong-centralizer":
        route = analysis._controlled_report(alg, profile, seed, budget)
        assert _without_method(controlled) == _without_method(route)
    if check_strongly_graded(alg).holds():
        picard = check_picard_injective(alg)
        assert picard.method in ("strong-centralizer", "picard-kernel")
        verdict, pair = analysis._non_isomorphic(profile.iso)
        assert picard.verdict is verdict
        assert picard.witness == (None if pair is None else {"pair": [alg.group.names[g] for g in pair]})


@pytest.mark.parametrize("alg", [a for _, a in STEP_CASES], ids=[n for n, _ in STEP_CASES])
def test_controlled_route_is_the_conjunction_of_the_necessary_parts(alg):
    # the general route of check_controlled against legs (ii) and (i) of necessary
    profile = analysis._component_profile(alg, seed=0, budget=65536)
    route = analysis._controlled_report(alg, profile, 0, 65536)
    iso, comp = check_necessary_conditions(alg).parts[:2]
    assert (iso.check, comp.check) == ("pairwise-non-isomorphic", "components-simple")
    assert route.verdict is Verdict.all_of([comp.verdict, iso.verdict])
    if comp.verdict is Verdict.FALSE:
        g = alg.group.names.index(comp.witness["component"])
        kind = "zero-component" if alg.comp_dims[g] == 0 else "component-not-simple"
        assert route.witness == {**comp.witness, "kind": kind}
    elif iso.verdict is Verdict.FALSE:
        assert route.witness == {**iso.witness, "kind": "isomorphic-pair"}
    else:
        assert route.witness is None


def test_theorem_steps_fire_on_the_ladder():
    cases = dict(STEP_CASES)
    for name in ("galois-2-4", "galois-2-6", "galois-3-3"):
        alg = cases[name]
        assert check_graded_simple(alg).method == "nondegenerate-simple-base"
        assert check_simple(alg).method == "strong-controlled"
        assert check_controlled(alg).method == "strong-centralizer"
        assert check_picard_injective(alg).method == "strong-centralizer"
    for name in ("m3-gf2", "m3-gf3"):
        # R_e = M2 x F is not simple: the Picard kernel is searched
        assert check_picard_injective(cases[name]).method == "picard-kernel"
    fired = {
        method: sum(check(alg).method == method for _, alg in STEP_CASES)
        for method, check in (
            ("nondegenerate-simple-base", check_graded_simple),
            ("strong-controlled", check_simple),
            ("strong-centralizer", check_controlled),
        )
    }
    assert all(count >= 5 for count in fired.values()), fired


def test_strong_grading_witness_is_the_first_failing_pair():
    # the |G| tests on (g, g^-1) decide; a False rescans every pair in order
    for _, alg in STEP_CASES:
        G = alg.group
        failing = [
            (g, h)
            for g in range(G.order)
            for h in range(G.order)
            if analysis._product_dim(alg, g, h) != alg.comp_dims[G.table[g][h]]
        ]
        rep = check_strongly_graded(alg)
        assert rep.holds() == (not failing)
        if failing:
            assert rep.witness["pair"] == [G.names[x] for x in failing[0]]


def test_controlled_skips_the_component_profile(monkeypatch):
    calls = []
    real = analysis._component_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "_component_profile", counted)
    alg = galois_skew_example(2, 4)
    assert check_crossed_controlled(alg).holds()
    assert len(calls) == 1
    calls.clear()
    assert check_controlled(alg).holds()
    assert calls == []


def test_picard_kernel_falls_back_when_a_pair_is_undecided():
    # A = F[s, t]/(s, t)^2 over GF(65521), twisted by s, t -> -s, -t: R_1
    # has the traces of R_e = A, and every hom R_e -> R_1 is x -> xc with c
    # in the radical, a plane of 65,522 lines that only the full sweep rules out
    f = GF(65521)
    ones = {(0, 0, 0, 0): [1, 0, 0], (0, 0, 0, 1): [0, 1, 0], (0, 0, 0, 2): [0, 0, 1]}
    ones.update({(0, 1, 0, 0): [0, 1, 0], (0, 2, 0, 0): [0, 0, 1]})
    base = GradedAlgebra(f, trivial_group(), (3,), ones, [1, 0, 0])
    sigma = Matrix(f, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    alg = skew_group_ring(base, cyclic_group(2), [Matrix.identity(f, 3), sigma])
    rep = check_picard_injective(alg)
    assert (rep.verdict, rep.method) == (Verdict.TRUE, "picard-kernel")
    rep = check_picard_injective(alg, budget=8)
    assert (rep.verdict, rep.method) == (Verdict.INCONCLUSIVE, "pairwise-isomorphism")
