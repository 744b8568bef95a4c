"""Decision procedures on group-graded algebras.

Everything here reduces a structural question about a graded algebra to
exact linear algebra over the scalar field: strong gradation, pairing
non-degeneracy, the centralizer condition, (graded) simplicity, the
controlled property, crossed-product recognition, outerness of the induced
automorphisms, injectivity of the component class map, and the lattice of
graded subrings sitting between the identity component and the whole ring.

Verdicts are three-valued.  Four checks first try an exact theorem about
R_e and its centralizer: `check_graded_simple` (`nondegenerate-simple-base`),
`check_simple` (`strong-controlled`), `check_controlled` and
`check_picard_injective` (`strong-centralizer`, and `picard-kernel` when
R_e is not shown simple or G is trivial).  Where none applies, `check_simple` and
`check_graded_simple` are one test, `is_simple`, on the regular action and
on the regular action with the projections onto the components added.  A
unit of a component and an invertible twisted intertwiner are found by the
one search for an invertible matrix, `bimodule.find_invertible_combo`,
whose candidates come from `linalg.span_candidates`: all projective points
when they fit the budget, which makes a fruitless search a proof, and else
the basis plus `bimodule.SAMPLES` random vectors.  Over a prime field every
check below is conclusive at the scales this package targets, because
those sweeps are affordable; over the rationals (where only a line can be
swept) a check either certifies its answer (kernel computations, dense
envelopes, rational eigenvalue splits, trace obstructions) or honestly
returns Inconclusive.  Callers choose the seed and the budget; the search
sizes are module constants.

Legs (i)-(iii) and (v) of `check_necessary_conditions` and the legs of
`check_crossed_controlled` read one component profile: the simplicity of
each component as an R_e-bimodule and the isomorphism verdict of each
pair, computed once.  `check_controlled` (and so `subring_correspondence`)
and `check_picard_injective` read it only where their theorem step does
not apply, so the crossed-product criteria still compare independent
computations.  R_e as a ring is the identity component acting on itself,
so its simplicity is read there too, and the theorem steps take it from
the same call (`_base_simplicity`).  Leg (v), every ideal graded, holds
outright when the profile shows R controlled; otherwise it is decided from
the simplicity test of R, and when neither certifies, by spinning every
point of R into its cyclic ideal.  This loses no independence: the checks
used to repeat the same deterministic call on the same matrices with the
same seed.  Nothing here imports the brute-force oracle, which stays
independent of all of it.

Every check returns a `CheckResult`; what one check alone reports goes in
its `fields`.
"""

import random
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .algebra import (
    Element,
    GradedAlgebra,
    GradedSubspace,
    graded_subspace_from_flat,
    is_invertible,
    validate_algebra,
)
from .bimodule import (
    BimoduleAction,
    SimplicityReport,
    Verdict,
    are_isomorphic_simple,
    bimodules_isomorphic,
    component_action,
    find_invertible_combo,
    graded_regular_action,
    image_rank,
    is_simple,
    regular_bimodule_action,
    spin,
)
from .builders import crossed_identity_failure, validate_automorphism
from .errors import InternalInconsistency, InvalidInput
from .groups import subgroups, validate_group
from .linalg import Matrix, Subspace, nullspace, span_candidates
from .serialize import vector_to_json


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one named check, JSON-ready.

    witness carries whatever certifies a False (or occasionally a True)
    verdict: coefficient vectors, component names, failing pairs.  parts
    holds sub-results for compound checks.  fields holds the JSON entries
    of one check alone, which `to_json` merges in; data holds the typed
    object behind them for callers, and is never serialized.
    """

    check: str
    verdict: Verdict
    method: str = ""
    detail: str = ""
    witness: Optional[dict] = None
    seed: Optional[int] = None
    budget: Optional[int] = None
    parts: list = dataclass_field(default_factory=list)
    fields: dict = dataclass_field(default_factory=dict)
    data: object = None

    def holds(self) -> bool:
        return self.verdict is Verdict.TRUE

    def to_json(self) -> dict:
        out = {"check": self.check, "verdict": self.verdict.value}
        if self.method:
            out["method"] = self.method
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        if self.seed is not None:
            out["seed"] = self.seed
        if self.budget is not None:
            out["budget"] = self.budget
        if self.parts:
            out["parts"] = [p.to_json() for p in self.parts]
        out.update(self.fields)
        return out


def _enc_subspace(field, sub: Optional[Subspace]) -> Optional[dict]:
    if sub is None:
        return None
    return {"dim": sub.dim, "basis": [vector_to_json(field, row) for row in sub.basis.entries]}


def _stack_all(mats: List[Matrix]) -> Matrix:
    out = mats[0]
    for m in mats[1:]:
        out = out.stack(m)
    return out


# --------------------------------------------------------------------------
# shape of the gradation
# --------------------------------------------------------------------------


def _product_dim(alg: GradedAlgebra, g: int, h: int) -> int:
    """dim R_g R_h: the rank of the images of left multiplication by R_g's
    basis on R_h (`image_rank` of the left blocks of `mult_ops(g, h)`)."""
    return image_rank(alg.field, alg.mult_ops(g, h)[0])


def _is_strongly_graded(alg: GradedAlgebra) -> bool:
    """Does 1 lie in R_g R_{g^-1} for every g?  |G| rank tests.

    That is enough: 1 in R_{h^-1} R_h gives R_{gh} = R_{gh} 1, inside
    R_{gh} R_{h^-1} R_h, inside R_g R_h.  R_g R_{g^-1} lies in R_e, so it
    holds 1 exactly when its dimension is dim R_e.
    """
    G = alg.group
    de = alg.comp_dims[G.identity]
    return all(_product_dim(alg, g, G.inv(g)) == de for g in range(G.order))


def check_strongly_graded(alg: GradedAlgebra) -> CheckResult:
    """Does R_g R_h = R_{gh} hold for every pair of group elements?

    Decided by `_is_strongly_graded`.  Pure linear algebra, so the verdict
    is always True or False; on False the pairs are rescanned and the
    witness names the first failing one in group-element order.
    """
    G = alg.group
    if not _is_strongly_graded(alg):
        for g in range(G.order):
            for h in range(G.order):
                k = G.table[g][h]
                got = _product_dim(alg, g, h)
                if got != alg.comp_dims[k]:
                    return CheckResult(
                        "strongly-graded",
                        Verdict.FALSE,
                        method="component-products",
                        witness={
                            "pair": [G.names[g], G.names[h]],
                            "product_dim": got,
                            "component_dim": alg.comp_dims[k],
                        },
                    )
    return CheckResult(
        "strongly-graded",
        Verdict.TRUE,
        method="component-products",
        detail="every R_g R_h spans R_{gh}",
    )


def _pairing_kernels(alg: GradedAlgebra, g: int) -> Tuple[Subspace, Subspace]:
    """Kernels of the pairing R_g x R_{g^-1} -> R_e on a nonzero R_g.

    Returns (left, right): the x in R_g with x R_{g^-1} = 0, and those
    with R_{g^-1} x = 0.
    """
    gi = alg.group.inv(g)
    if alg.comp_dims[gi] == 0:
        full = Subspace.full(alg.field, alg.comp_dims[g])
        return full, full
    lefts, rights = alg.mult_ops(gi, g)
    return nullspace(_stack_all(rights)), nullspace(_stack_all(lefts))


def check_nondegenerate(alg: GradedAlgebra) -> CheckResult:
    """Left and right non-degeneracy of all pairings R_g x R_{g^-1} -> R_e."""
    G = alg.group
    for g in range(G.order):
        if alg.comp_dims[g] == 0:
            continue
        for side, ker in zip(("left", "right"), _pairing_kernels(alg, g)):
            if ker.dim > 0:
                return CheckResult(
                    "nondegenerate",
                    Verdict.FALSE,
                    method="pairing-kernel",
                    witness={
                        "component": G.names[g],
                        "side": side,
                        "element": vector_to_json(alg.field, ker.basis.row(0)),
                    },
                )
    return CheckResult(
        "nondegenerate",
        Verdict.TRUE,
        method="pairing-kernel",
        detail="both annihilator kernels vanish for every component",
    )


# --------------------------------------------------------------------------
# centralizer of the identity component
# --------------------------------------------------------------------------


def _commutant_component(alg: GradedAlgebra, g: int) -> Subspace:
    """Solutions x in R_g of b x = x b for every b in R_e."""
    diffs = [left.sub(right) for left, right in zip(*alg.component_ops(g))]
    return nullspace(_stack_all(diffs))


def centralizer_of_Re(alg: GradedAlgebra) -> GradedSubspace:
    """C_R(R_e) as a graded subspace.

    The centralizer of a homogeneous subalgebra is itself graded: the
    commutation constraints are degree-preserving, so they split component
    by component.
    """
    return GradedSubspace(
        alg, {g: _commutant_component(alg, g) for g in range(alg.group.order)}
    )


def center_of_Re(alg: GradedAlgebra) -> Subspace:
    """Z(R_e) inside the coordinates of the identity component."""
    return _commutant_component(alg, alg.group.identity)


def check_centralizer_condition(alg: GradedAlgebra) -> CheckResult:
    """Does C_R(R_e) = Z(R_e) hold, i.e. no centralizing element outside R_e?

    Kernel computations only, so always conclusive.
    """
    cent = centralizer_of_Re(alg)
    e = alg.group.identity
    z = cent.component(e)
    names = alg.group.names
    dims = {names[g]: sub.dim for g, sub in sorted(cent.comps.items())}
    for g in sorted(cent.comps):
        if g == e:
            continue
        return CheckResult(
            "centralizer",
            Verdict.FALSE,
            method="commutant-kernel",
            witness={
                "component": names[g],
                "element": vector_to_json(alg.field, cent.comps[g].basis.row(0)),
                "centralizer_dims": dims,
            },
        )
    return CheckResult(
        "centralizer",
        Verdict.TRUE,
        method="commutant-kernel",
        detail=f"C_R(R_e) = Z(R_e) has dimension {z.dim}",
    )


# --------------------------------------------------------------------------
# theorem steps from R_e and its centralizer
# --------------------------------------------------------------------------


def _base_simplicity(alg: GradedAlgebra, seed: int, budget: int) -> SimplicityReport:
    """Is R_e a simple ring?  The identity component's `is_simple` call of
    `_component_profile`, which R_e as a bimodule over itself is."""
    e = alg.group.identity
    return is_simple(component_action(alg, e), seed=seed + e, budget=budget)


def _center_refutes(alg: GradedAlgebra) -> bool:
    """Is R_e shown not simple by its center, without `is_simple`?

    The center of a simple ring is a field, so a basis element z of Z(R_e)
    whose multiplication x -> zx on R_e is singular refutes it.
    """
    f = alg.field
    e = alg.group.identity
    flats = [op.flatten() for op in alg.component_ops(e)[0]]
    return any(
        nullspace(Matrix._unflatten(f, tuple(f.combine(z, flats)), alg.comp_dims[e])).dim
        for z in center_of_Re(alg).basis.entries
    )


def _centralizer_kernel(alg: GradedAlgebra) -> set:
    """K = {k : C_R(R_e) meets R_k}, which holds e since it holds 1.

    On a strongly graded R with R_e simple, every R_g is an invertible,
    hence simple, R_e-bimodule, and R_g = R_h exactly when g^-1 h lies in
    K: R_g = R_h when R_e = R_{g^-1 h}, a bimodule map R_e -> R_k is
    x -> xc for some c in C_R(R_e) meet R_k, and by Schur's lemma a nonzero
    one is an isomorphism.
    """
    e = alg.group.identity
    return {e} | {k for k in range(alg.group.order) if k != e and _commutant_component(alg, k).dim}


def _kernel_pairs(alg: GradedAlgebra, kernel: Dict[int, Verdict]) -> dict:
    """Isomorphism verdict of every pair g < h of a strongly graded R.

    kernel maps each k to whether R_k = R_e as R_e-bimodules.  As
    R_{g^-1} is invertible, R_g = R_h exactly when R_e = R_{g^-1 h}.
    """
    G = alg.group
    return {(g, h): kernel[G.table[G.inv(g)][h]] for g, h in combinations(range(G.order), 2)}


def _centralizer_profile(alg: GradedAlgebra) -> "_ComponentProfile":
    """The component profile of a strongly graded R whose R_e is simple:
    every component simple, and the pairs from `_centralizer_kernel`."""
    order = alg.group.order
    kernel = _centralizer_kernel(alg)
    simple = {g: SimplicityReport(Verdict.TRUE, "invertible-bimodule") for g in range(order)}
    pairs = _kernel_pairs(alg, {k: Verdict.from_bool(k in kernel) for k in range(order)})
    return _ComponentProfile(simple, pairs)


# --------------------------------------------------------------------------
# simplicity, graded and plain
# --------------------------------------------------------------------------


def _ideal_witness(alg: GradedAlgebra, sub: Subspace) -> dict:
    gs = graded_subspace_from_flat(alg, sub)
    out = {
        "dim": sub.dim,
        "graded": gs is not None,
        "basis": [vector_to_json(alg.field, row) for row in sub.basis.entries],
    }
    if gs is not None:
        out["component_dims"] = {
            alg.group.names[g]: s.dim for g, s in sorted(gs.comps.items())
        }
    return out


def _ideal_check(
    name: str, alg: GradedAlgebra, action: BimoduleAction, seed: int, budget: int
) -> CheckResult:
    """`is_simple` on an action whose invariant subspaces are ideals of R."""
    rep = is_simple(action, seed=seed, budget=budget)
    witness = _ideal_witness(alg, rep.witness) if rep.witness is not None else None
    return CheckResult(
        name, rep.verdict, method=rep.method, detail=rep.detail, witness=witness,
        seed=seed, budget=budget,
    )


def check_simple(alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536) -> CheckResult:
    """Is R simple as a ring (no two-sided ideal except 0 and R)?

    On a nontrivial grading, first the theorem step `strong-controlled` (on
    a trivial one it would repeat the test below): a strongly graded R whose
    R_e is simple and whose centralizer C_R(R_e) lies in R_e is controlled,
    hence simple.  Its components are then simple and pairwise
    non-isomorphic (`_centralizer_kernel`), so an ideal, being an
    R_e-sub-bimodule, is a sum of components, and one holding R_g holds
    R_{g^-1} R_g = R_e, which contains 1.  Otherwise `is_simple` on the
    regular action decides.
    """
    if (
        alg.group.order > 1
        and not _center_refutes(alg)
        and _is_strongly_graded(alg)
        and _centralizer_kernel(alg) == {alg.group.identity}
        and _base_simplicity(alg, seed, budget).verdict is Verdict.TRUE
    ):
        return CheckResult(
            "simple", Verdict.TRUE, method="strong-controlled",
            detail="R is strongly graded, R_e is simple and C_R(R_e) lies in R_e, "
            "so R is controlled, hence simple",
            seed=seed, budget=budget,
        )
    return _ideal_check("simple", alg, regular_bimodule_action(alg), seed, budget)


def check_graded_simple(alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536) -> CheckResult:
    """Is every graded two-sided ideal of R either 0 or R?

    On a nontrivial grading, first the theorem step
    `nondegenerate-simple-base`: with a nondegenerate grading and R_e
    simple, a graded ideal I holding some x != 0 in R_g holds x R_{g^-1},
    a nonzero ideal of R_e, so it holds 1.  Otherwise `is_simple` on
    `graded_regular_action`, whose invariant subspaces are the graded
    ideals: each certificate is a proof about graded ideals.
    """
    if (
        alg.group.order > 1
        and not _center_refutes(alg)
        and check_nondegenerate(alg).holds()
        and _base_simplicity(alg, seed, budget).verdict is Verdict.TRUE
    ):
        return CheckResult(
            "graded-simple", Verdict.TRUE, method="nondegenerate-simple-base",
            detail="the grading is nondegenerate and R_e is simple",
            seed=seed, budget=budget,
        )
    return _ideal_check("graded-simple", alg, graded_regular_action(alg), seed, budget)


# --------------------------------------------------------------------------
# the controlled property
# --------------------------------------------------------------------------


@dataclass
class _ComponentProfile:
    """Simplicity and isomorphism evidence shared by the component checks.

    simple maps each nonzero component g to its simplicity report as an
    R_e-bimodule (`is_simple` with seed + g, or `invertible-bimodule` in
    `_centralizer_profile`); iso maps each pair g < h of nonzero components
    to their isomorphism verdict.
    """

    simple: Dict[int, SimplicityReport]
    iso: Dict[Tuple[int, int], Verdict]

    def components_simple(self, order: int) -> Tuple[Verdict, Optional[int]]:
        """Is every component nonzero and simple?  With the first that is not."""
        for g in range(order):
            if g not in self.simple or self.simple[g].verdict is Verdict.FALSE:
                return Verdict.FALSE, g
        return _unless_undecided([rep.verdict for rep in self.simple.values()]), None


def _component_profile(
    alg: GradedAlgebra, *, seed: int, budget: int, base: Optional[SimplicityReport] = None
) -> _ComponentProfile:
    """Simplicity of every nonzero component and isomorphism of every pair.

    Two simple components are compared by Schur's lemma, exact over any
    field; any other pair goes through the invertible-hom search.  base,
    when given, is R_e's report from `_base_simplicity`, which is not
    computed again.
    """
    e = alg.group.identity
    support = [g for g in range(alg.group.order) if alg.comp_dims[g]]
    actions = {g: component_action(alg, g) for g in support}
    simple = {
        g: base if g == e and base is not None
        else is_simple(actions[g], seed=seed + g, budget=budget)
        for g in support
    }
    iso = {}
    for g, h in combinations(support, 2):
        if simple[g].verdict is Verdict.TRUE and simple[h].verdict is Verdict.TRUE:
            iso[(g, h)] = Verdict.from_bool(are_isomorphic_simple(actions[g], actions[h]))
        else:
            iso[(g, h)] = _hom_search(actions, g, h, seed, budget)
    return _ComponentProfile(simple, iso)


def _hom_search(actions: dict, g: int, h: int, seed: int, budget: int) -> Verdict:
    """Are R_g and R_h (g < h) isomorphic?  The invertible-hom search, seed + 101*g + h."""
    return bimodules_isomorphic(
        actions[g], actions[h], seed=seed + 101 * g + h, budget=budget
    ).verdict


def _non_isomorphic(pairs: dict) -> Tuple[Verdict, Optional[Tuple[int, int]]]:
    """Is no pair isomorphic?  With the first pair that is."""
    for pair, v in sorted(pairs.items()):
        if v is Verdict.TRUE:
            return Verdict.FALSE, pair
    return _unless_undecided(list(pairs.values())), None


def _unless_undecided(verdicts: list) -> Verdict:
    return Verdict.INCONCLUSIVE if Verdict.INCONCLUSIVE in verdicts else Verdict.TRUE


def check_controlled(
    alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536
) -> CheckResult:
    """Decide whether subsets of G classify the R_e-sub-bimodules of R.

    The criterion tested: every component is a simple bimodule over the
    identity component, and no two distinct components are isomorphic.
    A zero component fails immediately (it would glue two subsets to the
    same sub-bimodule).  On a strongly graded R with R_e simple this is the
    paper's characterization, read off the centralizer
    (`strong-centralizer`, `_centralizer_kernel`); otherwise the component
    profile decides.
    """
    return _controlled(alg, seed, budget, _is_strongly_graded(alg))


def _controlled(alg: GradedAlgebra, seed: int, budget: int, strong: bool) -> CheckResult:
    """`check_controlled`, with the verdict of `_is_strongly_graded` given."""
    base = _base_simplicity(alg, seed, budget)
    if strong and base.verdict is Verdict.TRUE:
        return _controlled_report(
            alg, _centralizer_profile(alg), seed, budget, method="strong-centralizer"
        )
    profile = _component_profile(alg, seed=seed, budget=budget, base=base)
    return _controlled_report(alg, profile, seed, budget)


def _controlled_report(
    alg: GradedAlgebra, profile: _ComponentProfile, seed: int, budget: int,
    method: str = "components-and-isomorphisms",
) -> CheckResult:
    G = alg.group
    comp_verdict, bad = profile.components_simple(G.order)
    iso_verdict, pair = _non_isomorphic(profile.iso)
    witness = None
    if bad is not None and bad not in profile.simple:
        witness = {"kind": "zero-component", "component": G.names[bad]}
    elif bad is not None:
        witness = {
            "kind": "component-not-simple",
            "component": G.names[bad],
            "sub_bimodule": _enc_subspace(alg.field, profile.simple[bad].witness),
        }
    elif pair is not None:
        witness = {"kind": "isomorphic-pair", "pair": [G.names[g] for g in pair]}
    verdict = Verdict.FALSE if witness else _unless_undecided([comp_verdict, iso_verdict])
    simplicity = {
        G.names[g]: (profile.simple[g].verdict if g in profile.simple else Verdict.FALSE).value
        for g in range(G.order)
    }
    isomorphic = [
        [G.names[g], G.names[h], profile.iso.get((g, h), Verdict.SKIPPED).value]
        for g, h in combinations(range(G.order), 2)
    ]
    return CheckResult(
        "controlled", verdict, method=method, witness=witness,
        seed=seed, budget=budget, fields={"simplicity": simplicity, "isomorphic": isomorphic},
    )


def subset_action(alg: GradedAlgebra, subset) -> BimoduleAction:
    """R_S = direct sum of the components over S, as an R_e-bimodule."""
    lefts, rights = alg.subset_ops(subset)
    names = ",".join(alg.group.names[int(g)] for g in subset)
    return BimoduleAction(alg.field, lefts[0].cols, lefts, rights, tag=f"R_{{{names}}}")


# --------------------------------------------------------------------------
# the five necessary conditions
# --------------------------------------------------------------------------


def _ideals_graded_certificate(
    alg: GradedAlgebra, comp_verdict: Verdict, iso_verdict: Verdict, seed: int, budget: int
) -> CheckResult:
    """Leg (v), by the first of three exact routes that applies.

    When legs (i) and (ii) hold, R is G-controlled: its R_e-sub-bimodules
    are the R_H, and every two-sided ideal is one of them, so graded.  Else,
    over a prime field, `is_simple` on the regular action (the call and seed
    of `check_simple`) either proves R simple, whose only ideals 0 and R are
    graded, or finds an ideal that may not be graded.  Over Q that search
    is not run, because it costs more there than the rest of the check.
    Failing both, `_ideals_graded_by_spins` decides.
    """
    if comp_verdict is Verdict.TRUE and iso_verdict is Verdict.TRUE:
        return CheckResult(
            "ideals-graded", Verdict.TRUE, method="controlled-components",
            detail="every ideal is a sum of components", seed=seed, budget=budget,
        )
    if alg.field.p:
        rep = is_simple(regular_bimodule_action(alg), seed=seed, budget=budget)
        if rep.verdict is Verdict.TRUE:
            return CheckResult(
                "ideals-graded", Verdict.TRUE, method="simple-ring",
                detail="the only ideals are 0 and R", seed=seed, budget=budget,
            )
        if rep.witness is not None and graded_subspace_from_flat(alg, rep.witness) is None:
            return CheckResult(
                "ideals-graded", Verdict.FALSE, method="ungraded-ideal",
                witness={"ideal": _enc_subspace(alg.field, rep.witness)}, seed=seed,
                budget=budget,
            )
    return _ideals_graded_by_spins(alg, seed, budget)


def _ideals_graded_by_spins(alg: GradedAlgebra, seed: int, budget: int) -> CheckResult:
    """Leg (v) by spinning every point v of R into its cyclic ideal RvR.

    Every ideal is a sum of cyclic ones, so every ideal is graded exactly
    when every RvR is.  The points are the candidates of `span_candidates`
    over all of R; when they do not sweep it (past the budget, or over Q
    once R is bigger than a line) the leg is Skipped.
    """
    f = alg.field
    rows = Matrix.identity(f, alg.dim).entries
    candidates, complete = span_candidates(f, rows, random.Random(seed), 0, budget)
    if not complete:
        return CheckResult(
            "ideals-graded", Verdict.SKIPPED, method="cyclic-ideals",
            detail="the points of R are not swept within the budget", seed=seed,
            budget=budget,
        )
    action = regular_bimodule_action(alg)
    for vec in candidates:
        ideal = spin(action, vec)
        if graded_subspace_from_flat(alg, ideal) is None:
            return CheckResult(
                "ideals-graded", Verdict.FALSE, method="cyclic-ideals",
                witness={"ideal": _enc_subspace(f, ideal)}, seed=seed, budget=budget,
            )
    return CheckResult(
        "ideals-graded", Verdict.TRUE, method="cyclic-ideals",
        detail="every cyclic ideal RvR is graded", seed=seed, budget=budget,
    )


def check_necessary_conditions(
    alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536
) -> CheckResult:
    """The five conditions a controlled gradation must satisfy.

    (i) components pairwise non-isomorphic, (ii) every component a simple
    bimodule, (iii) the identity component a simple ring, (iv) the
    centralizer of R_e reduced to its center, (v) every two-sided ideal
    graded.  Condition (v) is certified first (`_ideals_graded_certificate`:
    by (i) and (ii), or over a prime field by the simplicity test of R);
    only when no certificate applies is every point of R spun into its
    ideal, within the budget, and the condition reported Skipped when that
    sweep is out of reach.
    """
    G = alg.group
    f = alg.field
    e = G.identity
    profile = _component_profile(alg, seed=seed, budget=budget)

    def same(g: int, h: int) -> Verdict:
        dg, dh = alg.comp_dims[g], alg.comp_dims[h]
        if dg == 0 or dh == 0:
            return Verdict.from_bool(dg == dh)
        return profile.iso[(g, h)]

    pairs = {pair: same(*pair) for pair in combinations(range(G.order), 2)}
    iso_verdict, iso_pair = _non_isomorphic(pairs)
    parts = [
        CheckResult(
            "pairwise-non-isomorphic", iso_verdict, method="bimodule-isomorphism",
            witness=None if iso_pair is None else {"pair": [G.names[g] for g in iso_pair]},
            seed=seed, budget=budget,
        )
    ]

    comp_verdict, bad = profile.components_simple(G.order)
    comp_witness = None
    if bad is not None and bad not in profile.simple:
        comp_witness = {"component": G.names[bad], "kind": "zero-component"}
    elif bad is not None:
        comp_witness = {
            "component": G.names[bad],
            "sub_bimodule": _enc_subspace(f, profile.simple[bad].witness),
        }
    parts.append(
        CheckResult(
            "components-simple", comp_verdict, method="bimodule-simplicity",
            witness=comp_witness, seed=seed, budget=budget,
        )
    )

    # R_e as a bimodule over itself is the identity component: same operators
    base_rep = profile.simple[e]
    base_witness = None
    if base_rep.witness is not None:
        base_witness = {"ideal": _enc_subspace(f, base_rep.witness)}
    parts.append(
        CheckResult(
            "identity-simple-ring", base_rep.verdict, method=base_rep.method,
            witness=base_witness, seed=seed, budget=budget,
        )
    )

    cent = check_centralizer_condition(alg)
    parts.append(
        CheckResult(
            "centralizer-is-center", cent.verdict, method=cent.method,
            detail=cent.detail, witness=cent.witness,
        )
    )

    parts.append(_ideals_graded_certificate(alg, comp_verdict, iso_verdict, seed, budget))

    evaluated = [p.verdict for p in parts if p.verdict is not Verdict.SKIPPED]
    if any(v is Verdict.FALSE for v in evaluated):
        verdict = Verdict.FALSE
    elif any(v is Verdict.INCONCLUSIVE for v in evaluated):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.TRUE
    skipped = [p.check for p in parts if p.verdict is Verdict.SKIPPED]
    detail = f"skipped: {', '.join(skipped)}" if skipped else "all five conditions evaluated"
    return CheckResult(
        "necessary", verdict, method="five-conditions", detail=detail,
        seed=seed, budget=budget, parts=parts,
    )


# --------------------------------------------------------------------------
# crossed products
# --------------------------------------------------------------------------


@dataclass
class CrossedProductData:
    """Invertible homogeneous units plus the twisting they induce.

    units maps each group element to the coefficients (in component
    coordinates) of an invertible u_g in R_g, with u_e = 1.  sigma holds
    the automorphism b -> u_g b u_g^{-1} of R_e as a matrix; alpha the
    two-cocycle u_g u_h u_{gh}^{-1}, as coefficients over R_e.
    """

    units: Dict[int, tuple]
    sigma: Dict[int, Matrix]
    alpha: Dict[Tuple[int, int], tuple]

    def to_json(self, alg: GradedAlgebra) -> dict:
        names = alg.group.names
        f = alg.field
        return {
            "units": {names[g]: vector_to_json(f, vec) for g, vec in sorted(self.units.items())},
            "sigma": {
                names[g]: [vector_to_json(f, row) for row in m.entries]
                for g, m in sorted(self.sigma.items())
            },
            "alpha": [
                [names[g], names[h], vector_to_json(f, vec)]
                for (g, h), vec in sorted(self.alpha.items())
            ],
        }


def _side_traces(action: BimoduleAction) -> list:
    """tr L_b and tr R_b for every basis element b, reduced in the field.

    For R_g = R_e u with u a unit, a -> a u carries L_b on R_e to L_b on
    R_g and a -> u a carries R_b on R_e to R_b on R_g, so a component with
    a unit has the side traces of R_e.  The traces of the products L_b R_c
    do not survive: R_g is R_e twisted by conjugation with u.
    """
    f = action.field
    diagonal = Matrix.identity(f, action.dim).flatten()
    return f.dots([op.flatten() for op in action.ops], diagonal)


def detect_crossed_product(
    alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536
) -> CheckResult:
    """Find an invertible element in every component, or rule that out.

    In a valid algebra a unit's inverse is homogeneous, so u in R_g is a
    unit exactly when its block x -> u x : R_{g^-1} -> R_e is square and
    nonsingular, and `find_invertible_combo` searches these blocks; a
    non-square span settles every candidate at once.  When the candidates
    sweep R_g (it fits the budget, or is a line over Q), No has proof scope
    "exhaustive".  Otherwise three exact obstructions can still certify No
    over any field: R_g must have the dimension of R_e; the pairing
    R_g R_{g^-1}, the blocks' column space, must be R_e (an ideal containing
    1 once a unit exists); and the one-sided multiplication traces on R_g
    must match those on R_e (`_side_traces`).  Failing all three, the search
    samples in the style of Schwartz-Zippel and ends Unknown, never No.  The
    data is the `CrossedProductData` of a True verdict, and None otherwise.
    """
    G = alg.group
    f = alg.field
    e = G.identity
    de = alg.comp_dims[e]
    rng = random.Random(seed)
    per: Dict[int, str] = {e: "unit"}
    units: Dict[int, Element] = {e: alg.one()}
    e_traces = _side_traces(component_action(alg, e))

    def report(verdict: Verdict, scope: str, data: Optional[CrossedProductData] = None):
        fields = {
            "proof_scope": scope,
            "components": {G.names[g]: text for g, text in sorted(per.items())},
        }
        if data is not None:
            fields["data"] = data.to_json(alg)
        return CheckResult(
            "crossed-product", verdict, seed=seed, budget=budget, fields=fields, data=data
        )

    for g in range(G.order):
        if g == e:
            continue
        blocks = alg.mult_ops(g, G.inv(g))[0]
        coeffs, complete = find_invertible_combo(f, blocks, rng, budget=budget)
        if coeffs is None and complete:
            per[g] = "no invertible element: exhaustive sweep of the component"
            return report(Verdict.FALSE, "exhaustive")
        if coeffs is None:
            # Exact obstructions, worth checking only when the sweep cannot
            # settle the component by itself.
            if alg.comp_dims[g] != de:
                per[g] = "no invertible element: component dimension differs from R_e"
                return report(Verdict.FALSE, "character")
            if image_rank(f, blocks) < de:
                per[g] = "no invertible element: R_g R_{g^-1} is a proper ideal of R_e"
                return report(Verdict.FALSE, "degenerate-pair")
            if _side_traces(component_action(alg, g)) != e_traces:
                per[g] = "no invertible element: one-sided traces differ from R_e"
                return report(Verdict.FALSE, "character")
            per[g] = "search exhausted without an invertible element"
            return report(Verdict.INCONCLUSIVE, "schwartz-zippel")
        per[g] = "found"
        units[g] = alg.element({g: coeffs})

    data = _twisting_from_units(alg, units)
    verify_crossed_identities(alg, data)
    return report(Verdict.TRUE, "constructive", data)


def _twisting_from_units(alg: GradedAlgebra, units: Dict[int, Element]) -> CrossedProductData:
    """sigma and alpha induced by a chosen invertible unit per component."""
    G = alg.group
    e = G.identity
    inverses = {}
    for g, u in units.items():
        inv = is_invertible(u)
        if inv is None:
            raise InternalInconsistency("stored unit lost its invertibility")
        if inv.support() not in ((), (G.inv(g),)):
            raise InternalInconsistency("inverse of a homogeneous unit is not homogeneous")
        inverses[g] = inv

    sigma = {}
    de = alg.comp_dims[e]
    for g, u in units.items():
        cols = []
        for k in range(de):
            w = u * alg.basis_element(e, k) * inverses[g]
            if any(s != e for s in w.support()):
                raise InternalInconsistency("conjugation left the identity component")
            cols.append(w.coeffs(e))
        sigma[g] = Matrix.from_columns(alg.field, cols)

    alpha = {}
    for g in range(G.order):
        for h in range(G.order):
            w = units[g] * units[h] * inverses[G.table[g][h]]
            if any(s != e for s in w.support()):
                raise InternalInconsistency("cocycle value left the identity component")
            alpha[(g, h)] = w.coeffs(e)
    return CrossedProductData(
        {g: u.coeffs(g) for g, u in units.items()}, sigma, alpha
    )


def verify_crossed_identities(alg: GradedAlgebra, data: CrossedProductData) -> None:
    """Check the identities of `builders.crossed_identity_failure` exactly.

    These follow from associativity once the units exist, so a failure
    means the extraction itself went wrong.
    """
    base = alg.identity_component_algebra()
    alpha = {key: base.from_flat(vec) for key, vec in data.alpha.items()}
    failure = crossed_identity_failure(base, alg.group, data.sigma, alpha)
    if failure is not None:
        raise InternalInconsistency(f"extracted crossed-product data: {failure}")


def verify_crossed_reconstruction(
    alg: GradedAlgebra, data: CrossedProductData
) -> Optional[dict]:
    """Rebuild multiplication from (sigma, alpha) and compare with R.

    In the basis b_{e,k} u_g the product must come out as
    (b u_g)(c u_h) = b sigma_g(c) alpha(g,h) u_{gh}.  Returns None when all
    basis products match, else a witness naming the first mismatch.
    """
    G = alg.group
    e = G.identity
    de = alg.comp_dims[e]
    units = {g: alg.element({g: vec}) for g, vec in data.units.items()}
    base_el = lambda k: alg.basis_element(e, k)
    for g in range(G.order):
        for h in range(G.order):
            gh = G.table[g][h]
            alpha_el = alg.element({e: data.alpha[(g, h)]})
            for k in range(de):
                for l in range(de):
                    lhs = (base_el(k) * units[g]) * (base_el(l) * units[h])
                    sig_c = alg.element({e: data.sigma[g].column(l)})
                    rhs = base_el(k) * sig_c * alpha_el * units[gh]
                    if lhs != rhs:
                        return {
                            "pair": [G.names[g], G.names[h]],
                            "basis": [k, l],
                        }
    return None


def is_inner(
    base: GradedAlgebra, sigma: Matrix, *, base_simple: Verdict, seed: int = 0,
    budget: int = 65536,
) -> CheckResult:
    """Is the automorphism conjugation by some invertible element?

    The twisted commutation space V = {x : sigma(b) x = x b for all b} is
    computed exactly; sigma is inner precisely when V contains an invertible
    element.  V = 0 settles Outer over any field.  When the base ring is
    simple any nonzero member of V is automatically invertible (its left
    annihilator would be a proper nonzero ideal), so a nonzero V settles
    Inner.  Otherwise `find_invertible_combo` searches the maps L_x on V:
    a sweep settles Outer, a fruitless sample does not.
    base_simple is the caller's simplicity verdict on the base ring.
    """
    validate_automorphism(base, sigma, "sigma")
    f = base.field
    diffs = [
        base.left_matrix(base.from_flat(sigma.column(k))).sub(right)
        for k, right in enumerate(base.flat_right_ops())
    ]
    V = nullspace(_stack_all(diffs))
    if V.dim == 0:
        return CheckResult(
            "inner", Verdict.FALSE, method="intertwiner-space",
            detail="no nonzero twisted intertwiner", seed=seed, budget=budget,
        )

    if base_simple is Verdict.TRUE:
        x = base.from_flat(V.basis.row(0))
        if is_invertible(x) is None:
            raise InternalInconsistency(
                "twisted intertwiner over a simple base ring is not invertible"
            )
        return CheckResult(
            "inner", Verdict.TRUE, method="intertwiner-space",
            detail="simple base ring, any nonzero intertwiner is invertible",
            witness={"element": vector_to_json(f, base.flatten(x))},
            seed=seed, budget=budget,
        )

    mults = [base.left_matrix(base.from_flat(v)) for v in V.basis.entries]
    coeffs, complete = find_invertible_combo(f, mults, random.Random(seed), budget=budget)
    if coeffs is not None:
        return CheckResult(
            "inner", Verdict.TRUE, method="intertwiner-search",
            witness={"element": vector_to_json(f, f.combine(coeffs, V.basis.entries))},
            seed=seed, budget=budget,
        )
    if complete:
        return CheckResult(
            "inner", Verdict.FALSE, method="intertwiner-search",
            detail="no invertible element in the intertwiner space (exhaustive)",
            seed=seed, budget=budget,
        )
    return CheckResult(
        "inner", Verdict.INCONCLUSIVE, method="intertwiner-search",
        detail="nonzero intertwiner space, no invertible member found",
        seed=seed, budget=budget,
    )


def check_crossed_controlled(
    alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536
) -> CheckResult:
    """For a crossed product, run the three equivalent controlled criteria.

    (a) the direct controlled test, (b) base ring simple plus the
    centralizer condition, (c) base ring simple plus every non-identity
    sigma_g outer.  The three legs read one component profile: leg (a) is
    built from it, and legs (b) and (c) take the simplicity of R_e from its
    identity component, which is R_e as a bimodule over itself.  What each
    leg then adds is its own: the centralizer kernel for (b), the twisted
    intertwiner spaces for (c).  Decided legs must agree or the run aborts,
    since their equivalence is exactly what the theory promises for crossed
    products.
    """
    det = detect_crossed_product(alg, seed=seed, budget=budget)
    if det.verdict is not Verdict.TRUE:
        raise InvalidInput(
            "crossed-product structure is required and was "
            + ("refuted" if det.verdict is Verdict.FALSE else "not certified")
        )
    data = det.data
    G = alg.group
    e = G.identity

    profile = _component_profile(alg, seed=seed, budget=budget)
    leg_a = _controlled_report(alg, profile, seed, budget)
    part_a = CheckResult(
        "controlled-direct", leg_a.verdict, method=leg_a.method, witness=leg_a.witness,
        seed=seed, budget=budget,
    )

    base = alg.identity_component_algebra()
    base_rep = profile.simple[e]
    cent = check_centralizer_condition(alg)
    if base_rep.verdict is Verdict.FALSE or cent.verdict is Verdict.FALSE:
        vb = Verdict.FALSE
    elif base_rep.verdict is Verdict.TRUE and cent.verdict is Verdict.TRUE:
        vb = Verdict.TRUE
    else:
        vb = Verdict.INCONCLUSIVE
    part_b = CheckResult(
        "base-simple-and-centralizer", vb, method="simplicity+commutant",
        detail=f"base ring simple: {base_rep.verdict.value}; centralizer: {cent.verdict.value}",
        seed=seed, budget=budget,
    )

    if base_rep.verdict is Verdict.FALSE:
        vc = Verdict.FALSE
        inner_detail = "base ring is not simple"
    else:
        inner_verdicts = []
        for g in range(G.order):
            if g == e:
                continue
            inner_verdicts.append(
                is_inner(
                    base, data.sigma[g], base_simple=base_rep.verdict, seed=seed + g,
                    budget=budget,
                ).verdict
            )
        if any(v is Verdict.TRUE for v in inner_verdicts):
            vc = Verdict.FALSE
            inner_detail = "some non-identity sigma_g is inner"
        elif base_rep.verdict is Verdict.TRUE and all(
            v is Verdict.FALSE for v in inner_verdicts
        ):
            vc = Verdict.TRUE
            inner_detail = "base ring simple and every non-identity sigma_g outer"
        else:
            vc = Verdict.INCONCLUSIVE
            inner_detail = "outerness not fully decided"
    part_c = CheckResult(
        "base-simple-and-outer", vc, method="twisted-intertwiners",
        detail=inner_detail, seed=seed, budget=budget,
    )

    decided = [v for v in (part_a.verdict, vb, vc) if v.decided]
    if decided and any(v is not decided[0] for v in decided):
        raise InternalInconsistency(
            "the three crossed-product controlled criteria disagree: "
            f"direct={part_a.verdict.value}, centralizer={vb.value}, outer={vc.value}"
        )
    verdict = decided[0] if decided else Verdict.INCONCLUSIVE
    return CheckResult(
        "crossed-controlled", verdict, method="three-criteria",
        seed=seed, budget=budget, parts=[part_a, part_b, part_c],
    )


# --------------------------------------------------------------------------
# component classes and graded subrings
# --------------------------------------------------------------------------


def check_picard_injective(
    alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536
) -> CheckResult:
    """Do distinct components represent distinct bimodule classes?

    Defined for strongly graded algebras, where every component is an
    invertible bimodule and g -> [R_g] is a group homomorphism into the
    Picard group of R_e; injectivity is exactly the absence of an
    isomorphism R_g = R_h for g != h.  So R_g = R_h exactly when g^-1 h
    lies in the kernel K, and only K is decided: from the centralizer when
    R_e is simple (`strong-centralizer`, `_centralizer_kernel`), else by
    the invertible-hom search on the |G| - 1 pairs (e, k) (`picard-kernel`;
    on a trivial grading there is none, and R_e is not tested).
    When that search leaves a pair undecided, every pair is tested
    (`pairwise-isomorphism`).  The pairs are read in the same order either
    way, so the witness is the first isomorphic pair.
    """
    if not _is_strongly_graded(alg):
        raise InvalidInput("the component class map needs a strongly graded algebra")
    G = alg.group
    e = G.identity
    if (
        G.order > 1
        and not _center_refutes(alg)
        and _base_simplicity(alg, seed, budget).verdict is Verdict.TRUE
    ):
        method, pairs = "strong-centralizer", _centralizer_profile(alg).iso
    else:
        actions = {g: component_action(alg, g) for g in range(G.order)}
        kernel = {e: Verdict.TRUE}
        for k in range(G.order):
            if k != e:
                kernel[k] = _hom_search(actions, min(e, k), max(e, k), seed, budget)
        method, pairs = "picard-kernel", _kernel_pairs(alg, kernel)
        if not all(v.decided for v in kernel.values()):
            method = "pairwise-isomorphism"
            pairs = _component_profile(alg, seed=seed, budget=budget).iso
    verdict, pair = _non_isomorphic(pairs)
    return CheckResult(
        "picard-injective", verdict, method=method,
        detail="no two distinct components are isomorphic" if verdict is Verdict.TRUE else "",
        witness=None if pair is None else {"pair": [G.names[g] for g in pair]},
        seed=seed, budget=budget,
    )


def subring_correspondence(
    alg: GradedAlgebra, *, seed: int = 0, budget: int = 65536
) -> CheckResult:
    """Subgroups of G versus subrings between R_e and R.

    Requires a controlled, strongly graded algebra (both are re-derived
    here and InvalidInput is raised otherwise).  In that situation the
    subrings containing R_e are exactly the sums R_H over subgroups H, so
    the report lists one entry R_H per subgroup H.  R_H holds the unit,
    which lies in R_e, and is closed under the product, which maps
    R_g x R_h into R_gh.  The report's data is the list of pairs
    (element names of H, R_H as a GradedSubspace).
    """
    strong = _is_strongly_graded(alg)
    ctrl = _controlled(alg, seed, budget, strong)
    if ctrl.verdict is not Verdict.TRUE:
        raise InvalidInput(
            "subring correspondence needs a controlled gradation (got "
            f"{ctrl.verdict.value})"
        )
    if not strong:
        raise InvalidInput("subring correspondence needs a strongly graded algebra")

    G = alg.group
    items = [(tuple(G.names[g] for g in h), GradedSubspace.full(alg, h)) for h in subgroups(G)]
    items.sort(key=lambda it: (len(it[0]), it[0]))
    subrings = [
        {
            "subset": list(names),
            "total_dim": sub.total_dim,
            "dims": {G.names[g]: s.dim for g, s in sorted(sub.comps.items())},
        }
        for names, sub in items
    ]
    return CheckResult(
        "subrings", Verdict.TRUE, seed=seed, fields={"count": len(items), "subrings": subrings},
        data=items,
    )


# --------------------------------------------------------------------------
# validity
# --------------------------------------------------------------------------


def check_valid(alg: GradedAlgebra) -> CheckResult:
    """Group axioms, unit laws, and associativity of the table.

    Associativity is certified by the left nucleus (`validate_algebra`):
    the basis elements S whose triples (s, y, z) all associate, picked
    until left multiplication by S spins 1 onto R, prove every triple
    associates (`left-nucleus`).  When a member of S fails, the full scan
    of all n^3 basis triples names the first failing one
    (`associativity-scan`).
    """
    gdiag = validate_group(alg.group)
    if not gdiag:
        return CheckResult(
            "valid", Verdict.FALSE, method="group-axioms",
            detail="; ".join(gdiag.problems),
        )
    adiag = validate_algebra(alg)
    if not adiag:
        witness = None
        if adiag.witness is not None:
            witness = {"flat_triple": list(adiag.witness)}
        return CheckResult(
            "valid", Verdict.FALSE, method="associativity-scan",
            detail="; ".join(adiag.problems), witness=witness,
        )
    labels = ", ".join(alg.label(*alg.basis_of_flat(k)) for k in adiag.nucleus_generators)
    return CheckResult(
        "valid", Verdict.TRUE, method="left-nucleus",
        detail=f"unit laws hold; the left nucleus contains 1 and S = {{{labels}}}, which generate R",
    )
