"""Decision procedures on known instances, witnesses included."""
import pytest

from gradedrings.analysis import (
    center_of_Re,
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
    verify_crossed_reconstruction,
)
from gradedrings.bimodule import Verdict, is_simple, regular_bimodule_action
from gradedrings.builders import (
    finite_field_algebra,
    full_matrix_algebra,
    galois_skew_example,
    group_algebra,
    inner_automorphism_matrix,
)
from gradedrings.corpus import checkerboard_m2, dual_numbers_graded, twisted_galois_z2
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group
from gradedrings.linalg import GF, RATIONALS


# --------------------------------------------------------------------------
# validation, strength, degeneracy
# --------------------------------------------------------------------------


def test_check_valid(m3_gf2, gf4skew, q_z2):
    for alg in (m3_gf2, gf4skew, q_z2):
        assert check_valid(alg).holds()


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
        assert cent.support() == (0,)
        assert center_of_Re(alg).dim == 2


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
        assert rep.witness["sub_bimodule"]["dim"] == 4


def test_controlled_positive(gf4skew):
    rep = check_controlled(gf4skew)
    assert rep.verdict is Verdict.TRUE
    assert all(v is Verdict.TRUE for v in rep.simplicity.values())
    assert all(v is Verdict.FALSE for v in rep.iso.values())


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
    assert all(p.verdict in (Verdict.TRUE, Verdict.SKIPPED) for p in rep.parts)


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


# --------------------------------------------------------------------------
# crossed products
# --------------------------------------------------------------------------


def test_crossed_product_m3_exhaustive(m3_gf2):
    rep = detect_crossed_product(m3_gf2)
    assert rep.verdict is Verdict.FALSE
    assert rep.proof_scope == "exhaustive"


def test_crossed_product_m3_rational(m3_q):
    rep = detect_crossed_product(m3_q)
    assert rep.verdict is Verdict.FALSE
    assert rep.proof_scope == "character"


def test_crossed_product_positive_with_data(gf4skew):
    rep = detect_crossed_product(gf4skew)
    assert rep.verdict is Verdict.TRUE
    assert rep.proof_scope == "constructive"
    assert rep.data is not None
    verify_crossed_identities(gf4skew, rep.data)
    assert verify_crossed_reconstruction(gf4skew, rep.data) is None


def test_crossed_product_group_algebra(q_z2):
    rep = detect_crossed_product(q_z2)
    assert rep.verdict is Verdict.TRUE
    verify_crossed_identities(q_z2, rep.data)
    assert verify_crossed_reconstruction(q_z2, rep.data) is None


def test_crossed_data_nontrivial_cocycle():
    alg = twisted_galois_z2(3, 2)
    rep = detect_crossed_product(alg)
    assert rep.verdict is Verdict.TRUE
    verify_crossed_identities(alg, rep.data)
    assert verify_crossed_reconstruction(alg, rep.data) is None


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
    assert rep.count == 2
    names = [n for n, _ in rep.items]
    assert names == [("0",), ("0", "1")]
    dims = [s.total_dim for _, s in rep.items]
    assert dims == [2, 4]


def test_subring_correspondence_z4_tower():
    alg = galois_skew_example(2, 4)
    rep = subring_correspondence(alg)
    assert rep.count == 3
    assert [n for n, _ in rep.items] == [("0",), ("0", "2"), ("0", "1", "2", "3")]
    assert [s.total_dim for _, s in rep.items] == [4, 8, 16]


def test_subring_gate_refuses_uncontrolled(m3_gf2, gf2_z2):
    for alg in (m3_gf2, gf2_z2):
        with pytest.raises(InvalidInput):
            subring_correspondence(alg)
