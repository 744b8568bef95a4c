"""Brute-force oracles: exhaustive enumeration at tiny scale."""
import functools

import pytest

from gradedrings import oracle
from gradedrings.analysis import (
    check_controlled,
    check_graded_simple,
    check_picard_injective,
    check_simple,
)
from gradedrings.bimodule import (
    Verdict,
    component_action,
    graded_regular_action,
    is_simple,
    regular_bimodule_action,
)
from gradedrings.builders import (
    galois_skew_example,
    group_algebra,
    m3_example,
    matrix_units_algebra,
)
from gradedrings.corpus import checkerboard_m2, dual_numbers_graded, oracle_scale_corpus
from gradedrings.errors import BudgetError, InvalidInput
from gradedrings.groups import cyclic_group, klein_four_group, symmetric_group, trivial_group
from gradedrings.linalg import (
    GF,
    RATIONALS,
    EchelonBasis,
    Matrix,
    Subspace,
    projective_vectors,
    subspace_sum,
)
from gradedrings.oracle import (
    controlled_oracle,
    count_subspaces,
    enumerate_sub_bimodules,
    enumerate_subspaces,
    gaussian_binomial,
    ideal_oracle,
    subring_oracle,
)
from gradedrings.serialize import vector_to_json


# --------------------------------------------------------------------------
# subspace enumeration
# --------------------------------------------------------------------------


def test_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert count_subspaces(2, 2) == 5
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(2, 4) == 67


def test_enumerate_subspaces_counts():
    assert len(enumerate_subspaces(2, GF(2), 10**6)) == 5
    assert len(enumerate_subspaces(1, GF(5), 10**6)) == 2
    got = enumerate_subspaces(3, GF(2), 10**6)
    assert len(got) == 16
    assert len(set(got)) == 16
    assert got[0].dim == 0 and got[-1].dim == 3


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetError):
        enumerate_subspaces(10, GF(3), budget=1000)


def test_oracles_refuse_rationals(q_z2):
    with pytest.raises(InvalidInput):
        enumerate_sub_bimodules(q_z2)
    with pytest.raises(InvalidInput):
        controlled_oracle(q_z2)


# --------------------------------------------------------------------------
# sub-bimodules
# --------------------------------------------------------------------------


def test_sub_bimodules_gf4skew(gf4skew):
    subs = enumerate_sub_bimodules(gf4skew)
    assert len(subs) == 4
    assert sorted(s.dim for s in subs) == [0, 2, 2, 4]


def test_sub_bimodules_group_algebra(gf2_z2):
    subs = enumerate_sub_bimodules(gf2_z2)
    # R_e acts by scalars, so every subspace of GF(2)^2 is invariant
    assert len(subs) == 5
    assert Subspace.from_vectors(GF(2), 2, [(1, 1)]) in subs


def test_sub_bimodules_m3_lattice(m3_gf2):
    subs = enumerate_sub_bimodules(m3_gf2)
    # Boolean lattice on four simple pieces of dims 1, 4, 2, 2
    assert len(subs) == 16
    dims = sorted(s.dim for s in subs)
    assert dims == sorted(
        sum(pick) for pick in
        [(a, b, c, d) for a in (0, 1) for b in (0, 4) for c in (0, 2) for d in (0, 2)]
    )


def test_sub_bimodules_trivial_group_simple_base():
    from gradedrings.builders import full_matrix_algebra

    subs = enumerate_sub_bimodules(full_matrix_algebra(GF(2), 2))
    assert len(subs) == 2


# --------------------------------------------------------------------------
# ideals
# --------------------------------------------------------------------------


def test_ideals_m3(m3_gf2):
    ideals = ideal_oracle(m3_gf2)
    assert [(s.dim, graded) for s, graded in ideals] == [(0, True), (9, True)]
    inner = ideal_oracle(m3_gf2.identity_component_algebra())
    assert sorted(s.dim for s, _ in inner) == [0, 1, 4, 5]


def test_ideals_group_algebra(gf2_z2):
    ideals = ideal_oracle(gf2_z2)
    dims = sorted(s.dim for s, _ in ideals)
    assert dims == [0, 1, 2]
    aug = next(s for s, _ in ideals if s.dim == 1)
    assert aug.contains((1, 1))
    graded_flags = {s.dim: g for s, g in ideals}
    assert graded_flags[1] is False  # the augmentation ideal is not graded


def test_ideals_dual_numbers():
    ideals = ideal_oracle(dual_numbers_graded(GF(2)))
    assert [(s.dim, g) for s, g in ideals] == [(0, True), (1, True), (2, True)]


# --------------------------------------------------------------------------
# controlled and subrings
# --------------------------------------------------------------------------


def test_controlled_oracle_knowns(m3_gf2, gf4skew, gf2_z2):
    assert controlled_oracle(gf4skew) is True
    assert controlled_oracle(m3_gf2) is False
    assert controlled_oracle(gf2_z2) is False
    assert controlled_oracle(checkerboard_m2(GF(3))) is False
    assert controlled_oracle(group_algebra(GF(3), trivial_group())) is True


def test_controlled_oracle_budget(m3_gf2):
    with pytest.raises(BudgetError):
        controlled_oracle(m3_gf2, budget=100)


def test_subring_oracle_gf4(gf4skew):
    subs = subring_oracle(gf4skew)
    assert sorted(s.dim for s in subs) == [2, 4]
    for s in subs:
        assert s.contains(gf4skew.flatten(gf4skew.one()))


def test_subring_oracle_z4_tower():
    alg = galois_skew_example(2, 4)
    subs = subring_oracle(alg)
    assert sorted(s.dim for s in subs) == [4, 8, 16]


def test_subring_oracle_trivial_group():
    from gradedrings.builders import full_matrix_algebra

    subs = subring_oracle(full_matrix_algebra(GF(3), 2))
    assert len(subs) == 1
    assert subs[0].dim == 4


# --------------------------------------------------------------------------
# packed fast path agrees with the generic one
# --------------------------------------------------------------------------


def test_gf2_and_gf3_checkerboards_agree_structurally():
    # same construction over both fields; lattices must be shaped alike
    subs2 = enumerate_sub_bimodules(checkerboard_m2(GF(2)))
    subs3 = enumerate_sub_bimodules(checkerboard_m2(GF(3)))
    assert sorted(s.dim for s in subs2) == sorted(s.dim for s in subs3)
    assert controlled_oracle(checkerboard_m2(GF(2))) == controlled_oracle(
        checkerboard_m2(GF(3))
    )


# --------------------------------------------------------------------------
# the memoized sweeps against a definition-level closure
# --------------------------------------------------------------------------

SWEEPABLE = [
    inst for inst in oracle_scale_corpus()
    if inst.alg.field.p and inst.alg.field.p ** inst.alg.dim <= 4096
]


def _reference_lattice(alg, ops):
    """Invariant subspaces straight from the definition, with no memo.

    Each projective seed is closed under the operators, applied to every
    vector that grows its span until none does, and the cyclic subspaces
    are then closed under sums.  Where every operator is a scalar matrix every subspace is
    invariant, and the lattice is all of them, so only its size is given.
    """
    f, n = alg.field, alg.dim
    if all(op == Matrix.identity(f, n).scale(op.entries[0][0]) for op in ops):
        return count_subspaces(f.p, n)
    cyclic = set()
    for seed in projective_vectors(f, Matrix.identity(f, n).entries):
        eb = EchelonBasis(f, n)
        eb.add(seed)
        queue = [seed]
        while queue and not eb.is_full():
            v = queue.pop()
            for op in ops:
                w = op.apply(v)
                if eb.add(w):
                    queue.append(w)
        cyclic.add(eb.to_subspace())
    lattice = {Subspace.zero(f, n)} | cyclic
    new = set(lattice)
    while new:
        new = {subspace_sum(a, c) for a in new for c in cyclic} - lattice
        lattice |= new
    return lattice


def _assert_lattice_matches(got, ref):
    assert len(set(got)) == len(got)
    if isinstance(ref, int):
        assert len(got) == ref
    else:
        assert set(got) == ref


@pytest.mark.parametrize("inst", SWEEPABLE, ids=[inst.name for inst in SWEEPABLE])
def test_lattices_match_definition_level_closure(inst):
    alg = inst.alg
    ideals = [s for s, _ in ideal_oracle(alg)]
    _assert_lattice_matches(
        ideals, _reference_lattice(alg, alg.flat_left_ops() + alg.flat_right_ops())
    )
    lefts, rights = alg.identity_ops()
    _assert_lattice_matches(enumerate_sub_bimodules(alg), _reference_lattice(alg, lefts + rights))


GF2_SWEEPABLE = [inst for inst in SWEEPABLE if inst.alg.field.p == 2]


@pytest.mark.parametrize("inst", GF2_SWEEPABLE, ids=[inst.name for inst in GF2_SWEEPABLE])
def test_packed_and_generic_sweeps_agree_seed_by_seed(inst):
    alg = inst.alg
    f, n = alg.field, alg.dim
    for lefts, rights in (
        (alg.flat_left_ops(), alg.flat_right_ops()),
        alg.identity_ops(),
    ):
        mats = oracle._operator_span(f, lefts, rights, n)
        packed = {
            seed: oracle._closure_subspace(f, rows, n)
            for seed, rows in oracle._packed_sweep(mats, n)
        }
        generic = {
            sum(x << i for i, x in enumerate(vec)): Subspace.from_vectors(f, n, rows)
            for vec, rows in oracle._generic_sweep(f, mats, n)
        }
        assert len(packed) == 2 ** n - 1
        assert packed == generic


@pytest.mark.parametrize(
    "name,cap,needle",
    [
        ("gf2-v4", 3, "cyclic invariant subspaces"),  # 5 nonzero cyclic ideals
        ("gf2-v4", 6, "lattice exceeds"),  # 7 ideals: only the join step passes 6
        ("gf3-v4", 4, "cyclic invariant subspaces"),  # 15 nonzero cyclic ideals
    ],
)
def test_lattice_cap_raises(monkeypatch, name, cap, needle):
    alg = next(inst.alg for inst in oracle_scale_corpus() if inst.name == name)
    monkeypatch.setattr(oracle, "LATTICE_CAP", cap)
    with pytest.raises(BudgetError, match=needle):
        ideal_oracle(alg)


# --------------------------------------------------------------------------
# elementary gradings of matrix rings outside the corpus
# --------------------------------------------------------------------------

ELEMENTARY = [
    ("m3-gf2-z3-012", GF(2), cyclic_group(3), (0, 1, 2)),
    ("m2-gf3-z3-01", GF(3), cyclic_group(3), (0, 1)),
    ("m3-gf2-s3", GF(2), symmetric_group(3), (0, 1, 3)),
    ("m2-gf2-z4-02", GF(2), cyclic_group(4), (0, 2)),
    ("m3-gf3-z2-001", GF(3), cyclic_group(2), (0, 0, 1)),
    ("m3-gf2-v4-012", GF(2), klein_four_group(), (0, 1, 2)),
]


GRADED_SIMPLE_CASES = {inst.name: inst.alg for inst in oracle_scale_corpus()}
GRADED_SIMPLE_CASES.update(
    (name, matrix_units_algebra(field, group, degrees))
    for name, field, group, degrees in ELEMENTARY
)


@functools.lru_cache(maxsize=None)
def _ideals(name):
    """`ideal_oracle` of one case."""
    return ideal_oracle(GRADED_SIMPLE_CASES[name])


def _graded_ideal_bases(name):
    """The oracle's graded ideals of one case, as JSON bases."""
    alg = GRADED_SIMPLE_CASES[name]
    return [
        [vector_to_json(alg.field, row) for row in sub.basis.entries]
        for sub, graded in _ideals(name)
        if graded
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(GRADED_SIMPLE_CASES))
def test_graded_simple_agrees_with_ideal_oracle(name, seed):
    # the oracle's graded ideals include 0 and R, which are always there
    alg = GRADED_SIMPLE_CASES[name]
    graded = _graded_ideal_bases(name)
    rep = check_graded_simple(alg, seed=seed)
    assert rep.verdict is Verdict.from_bool(len(graded) == 2)
    if rep.verdict is Verdict.FALSE:
        assert rep.witness["graded"]
        assert rep.witness["basis"] in graded


@pytest.mark.parametrize("name", sorted(GRADED_SIMPLE_CASES))
def test_theorem_steps_agree_with_the_oracles(name):
    # where a step fires, against definition-level enumeration (0 and R
    # are always among the oracle's ideals)
    alg = GRADED_SIMPLE_CASES[name]
    ideals = _ideals(name)
    if check_graded_simple(alg).method == "nondegenerate-simple-base":
        assert sum(graded for _, graded in ideals) == 2
    if check_simple(alg).method == "strong-controlled":
        assert len(ideals) == 2
    controlled = check_controlled(alg)
    if controlled.method == "strong-centralizer":
        # R_e simple makes every component simple: controlled is then
        # exactly "no two components isomorphic", the Picard verdict
        expected = Verdict.from_bool(controlled_oracle(alg))
        assert controlled.verdict is expected
        assert check_picard_injective(alg).verdict is expected


@pytest.mark.parametrize("name,field,group,degrees", ELEMENTARY, ids=[c[0] for c in ELEMENTARY])
def test_elementary_gradings_agree_with_oracles(name, field, group, degrees):
    alg = matrix_units_algebra(field, group, degrees)
    ideals = ideal_oracle(alg)
    graded = [s for s, is_graded in ideals if is_graded]
    assert check_controlled(alg).verdict is Verdict.from_bool(controlled_oracle(alg))
    assert check_simple(alg).verdict is Verdict.from_bool(len(ideals) == 2)
    assert check_graded_simple(alg).verdict is Verdict.from_bool(len(graded) == 2)


# --------------------------------------------------------------------------
# the field-commutant certificate of is_simple, checked by the oracle
# --------------------------------------------------------------------------


def _certified_actions(alg, seed):
    """(kind, g, action) of every action on which is_simple says field-commutant."""
    actions = [
        ("component", g, component_action(alg, g))
        for g in range(alg.group.order)
        if alg.comp_dims[g]
    ]
    actions += [("regular", None, regular_bimodule_action(alg))]
    actions += [("graded", None, graded_regular_action(alg))]
    return [
        (kind, g, act)
        for kind, g, act in actions
        if is_simple(act, seed=seed).method == "field-commutant"
    ]


def _oracle_says_simple(name, kind, g) -> bool:
    alg = GRADED_SIMPLE_CASES[name]
    if kind == "regular":
        return len(ideal_oracle(alg)) == 2
    if kind == "graded":
        return len(_graded_ideal_bases(name)) == 2
    # the sub-bimodules of R_g are the oracle's sub-bimodules inside its block
    lo, hi = alg.offsets[g], alg.offsets[g] + alg.comp_dims[g]
    inside = [
        s
        for s in enumerate_sub_bimodules(alg)
        if all(not x for row in s.basis.entries for x in row[:lo] + row[hi:])
    ]
    return len(inside) == 2


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(GRADED_SIMPLE_CASES))
def test_field_commutant_certificate_agrees_with_the_oracle(name, seed):
    for kind, g, _ in _certified_actions(GRADED_SIMPLE_CASES[name], seed):
        assert _oracle_says_simple(name, kind, g), (name, kind, g)


def test_field_commutant_certificate_is_exercised():
    fired = {
        name: sorted((kind, g) for kind, g, _ in _certified_actions(GRADED_SIMPLE_CASES[name], 0))
        for name in ("galois-2-2", "galois-3-2-twisted", "gf2-field-ext")
    }
    assert fired == {
        "galois-2-2": [("component", 0), ("component", 1)],
        "galois-3-2-twisted": [("component", 0), ("component", 1)],
        "gf2-field-ext": [("component", 0), ("graded", None), ("regular", None)],
    }
