"""Acceptance gate: one test per criterion, timed where the bar demands it.

Each test prints a single CRITERION line so a plain verbose run doubles as
the acceptance report.
"""
import itertools
import json
import random
import time

from gradedrings.algebra import GradedSubspace
from gradedrings.analysis import (
    centralizer_of_Re,
    check_centralizer_condition,
    check_controlled,
    check_crossed_controlled,
    check_graded_simple,
    check_nondegenerate,
    check_picard_injective,
    check_simple,
    check_strongly_graded,
    check_valid,
    detect_crossed_product,
    subring_correspondence,
    verify_crossed_identities,
)
from gradedrings.bimodule import (
    Verdict,
    bimodules_isomorphic,
    component_action,
    is_simple,
    regular_bimodule_action,
    spin,
)
from gradedrings.builders import galois_skew_example, m3_example
from gradedrings.cli import main
from gradedrings.corpus import standard_corpus
from gradedrings.groups import subgroups, cyclic_group
from gradedrings.linalg import (
    GF,
    RATIONALS,
    Matrix,
    Subspace,
    nullspace,
    rref,
    subspace_sum,
)
from gradedrings.oracle import controlled_oracle, ideal_oracle, subring_oracle
from references import (
    component_product,
    contains_subspace,
    field_add,
    is_nilpotent,
    subset_action,
    subspace_intersect,
    verify_crossed_reconstruction,
)

CORPUS = standard_corpus()


def _report(num, label, started):
    print(f"CRITERION {num} [{label}]: PASS ({time.time() - started:.2f}s)")


# --------------------------------------------------------------------------
# 1. matrix-grading regression over GF(2) and Q
# --------------------------------------------------------------------------


def test_criterion_1_m3_regression():
    started = time.time()
    for field in (GF(2), RATIONALS):
        alg = m3_example(field)
        assert check_valid(alg).holds()
        assert check_strongly_graded(alg).holds()
        assert check_graded_simple(alg).holds()
        assert check_simple(alg).holds()
        assert check_controlled(alg).verdict is Verdict.FALSE
        assert check_centralizer_condition(alg).holds()
        cent = centralizer_of_Re(alg)
        assert cent.total_dim == 2 and tuple(sorted(cent.comps)) == (0,)
        assert cent.component(alg.group.identity).dim == 2

        # principal ideals of the identity component, one per basis vector
        base = alg.identity_component_algebra()
        act = regular_bimodule_action(base)
        unit = [field.zero] * base.dim
        proper = {}
        for k in range(base.dim):
            vec = list(unit)
            vec[k] = field.one
            ideal = spin(act, vec)
            if 0 < ideal.dim < base.dim:
                proper[ideal.basis.entries] = ideal
        by_dim = sorted(proper.values(), key=lambda s: s.dim)
        assert [s.dim for s in by_dim] == [1, 4]
        ideal_i, ideal_j = by_dim

        if field.p:  # full lattice enumeration only runs over prime fields
            enumerated = sorted(
                (s for s, _ in ideal_oracle(base) if 0 < s.dim < base.dim),
                key=lambda s: s.dim,
            )
            assert enumerated == by_dim

        gsub_i = GradedSubspace(alg, {0: ideal_i})
        gsub_j = GradedSubspace(alg, {0: ideal_j})
        odd = GradedSubspace.full(alg, (1,))
        # conjugating by the odd part swaps the two identity-block ideals
        swapped_i = component_product(component_product(odd, gsub_i), odd)
        swapped_j = component_product(component_product(odd, gsub_j), odd)
        assert tuple(sorted(swapped_i.comps)) == (0,) and tuple(sorted(swapped_j.comps)) == (0,)
        assert contains_subspace(gsub_j.component(0), swapped_i.component(0))
        assert contains_subspace(gsub_i.component(0), swapped_j.component(0))

    rep = detect_crossed_product(m3_example(GF(2)))
    assert rep.verdict is Verdict.FALSE and rep.fields["proof_scope"] == "exhaustive"

    elapsed = time.time() - started
    assert elapsed < 5.0, f"matrix regression took {elapsed:.2f}s"
    _report(1, "matrix-grading regression", started)


# --------------------------------------------------------------------------
# 2. oracle agreement over the corpus
# --------------------------------------------------------------------------


def test_criterion_2_oracle_agreement():
    started = time.time()
    assert len(CORPUS) >= 30
    assert all(inst.alg.dim <= 8 for inst in CORPUS)
    assert all(inst.alg.field.p in (2, 3) for inst in CORPUS)

    disagreements = []
    n_controlled = 0
    for inst in CORPUS:
        rep = check_controlled(inst.alg)
        orc = controlled_oracle(inst.alg)
        if not (rep.verdict.decided and (rep.verdict is Verdict.TRUE) == orc):
            disagreements.append(f"{inst.name}: controlled")
        if not orc:
            continue
        n_controlled += 1
        if check_strongly_graded(inst.alg).holds():
            corr = subring_correspondence(inst.alg)
            ours = sorted(s.flat().basis.entries for _, s in corr.data)
            oracle = sorted(s.basis.entries for s in subring_oracle(inst.alg))
            if ours != oracle:
                disagreements.append(f"{inst.name}: subrings")
        if any(not graded for _, graded in ideal_oracle(inst.alg)):
            disagreements.append(f"{inst.name}: ungraded ideal on a controlled ring")

    assert disagreements == []
    assert n_controlled >= 3  # positives are genuinely exercised
    elapsed = time.time() - started
    assert elapsed < 120.0, f"corpus agreement took {elapsed:.2f}s"
    _report(2, f"oracle agreement on {len(CORPUS)} instances", started)


# --------------------------------------------------------------------------
# 3. equivalence suite
# --------------------------------------------------------------------------


def _decided(*reports):
    return all(r.verdict.decided for r in reports)


def test_criterion_3_equivalence_suite():
    started = time.time()
    violations = []

    for inst in CORPUS:
        alg = inst.alg
        controlled = check_controlled(alg)
        strong = check_strongly_graded(alg)
        if not _decided(controlled, strong):
            continue
        is_controlled = controlled.verdict is Verdict.TRUE

        # characterization of controlled == definition-level enumeration
        if is_controlled != controlled_oracle(alg):
            violations.append(f"{inst.name}: characterization vs enumeration")

        comp_verdicts = [
            is_simple(component_action(alg, g), seed=11 + g).verdict
            if alg.comp_dims[g]
            else Verdict.FALSE  # a zero component is never a simple bimodule
            for g in range(alg.group.order)
        ]
        centralizer = check_centralizer_condition(alg)
        all_simple = (
            all(v is Verdict.TRUE for v in comp_verdicts)
            if all(v.decided for v in comp_verdicts)
            else None
        )

        if strong.holds():
            picard = check_picard_injective(alg)
            # centralizer equality forces distinct component classes
            if centralizer.holds() and picard.verdict is Verdict.FALSE:
                violations.append(f"{inst.name}: centralizer without injectivity")
            # on a simple identity component the two are equivalent
            base_simple = is_simple(
                # the identity component acting on itself as a ring
                component_action(alg, alg.group.identity), seed=5
            )
            if (
                base_simple.verdict is Verdict.TRUE
                and picard.verdict.decided
                and centralizer.verdict is not picard.verdict
            ):
                violations.append(f"{inst.name}: centralizer/injectivity split")
            # three-way characterization on strongly graded rings
            if all_simple is not None and picard.verdict.decided:
                via_centralizer = all_simple and centralizer.holds()
                via_picard = all_simple and picard.verdict is Verdict.TRUE
                if via_centralizer != is_controlled or via_picard != is_controlled:
                    violations.append(f"{inst.name}: strongly graded three-way")
            # simplicity consequences
            simple = check_simple(alg, seed=7)
            if simple.verdict.decided:
                if all_simple and centralizer.holds() and not simple.holds():
                    violations.append(f"{inst.name}: simple-components implication")
                if (
                    base_simple.verdict is Verdict.TRUE
                    and centralizer.holds()
                    and not simple.holds()
                ):
                    violations.append(f"{inst.name}: simple-base implication")
            # nilpotent variant needs graded simplicity instead of a simple base
            gsimple = check_graded_simple(alg, seed=7)
            if (
                is_nilpotent(alg.group)
                and gsimple.holds()
                and centralizer.holds()
                and simple.verdict.decided
                and not simple.holds()
            ):
                violations.append(f"{inst.name}: nilpotent implication")

        if is_controlled:
            # four-way equivalence on controlled rings
            verdicts = {
                "graded-simple": check_graded_simple(alg, seed=3).verdict,
                "simple": check_simple(alg, seed=3).verdict,
                "strong": strong.verdict,
                "nondegenerate": check_nondegenerate(alg).verdict,
            }
            decided = {k: v for k, v in verdicts.items() if v.decided}
            if len({v for v in decided.values()}) > 1:
                violations.append(f"{inst.name}: four-way equivalence {decided}")

            # product dichotomy: opposite pairings vanish or fill together
            full = GradedSubspace.full
            for g in range(alg.group.order):
                ginv = alg.group.inv(g)
                ab = component_product(full(alg, (g,)), full(alg, (ginv,)))
                ba = component_product(full(alg, (ginv,)), full(alg, (g,)))
                d_ab = ab.total_dim
                d_ba = ba.total_dim
                if (d_ab == 0) != (d_ba == 0):
                    violations.append(f"{inst.name}: dichotomy at {g}")
                e_dim = alg.comp_dims[alg.group.identity]
                if (d_ab == e_dim) != (d_ba == e_dim):
                    violations.append(f"{inst.name}: full-pairing dichotomy at {g}")

            # distinct subsets carry non-isomorphic sub-bimodules
            order = alg.group.order
            subsets = [
                s
                for r in range(1, order + 1)
                for s in itertools.combinations(range(order), r)
            ]
            for s_set, t_set in itertools.combinations(subsets, 2):
                iso = bimodules_isomorphic(
                    subset_action(alg, s_set), subset_action(alg, t_set), seed=9
                )
                if iso.verdict is Verdict.TRUE:
                    violations.append(f"{inst.name}: subsets {s_set} ~ {t_set}")

        # crossed products: the three routes must give one answer
        crossed = detect_crossed_product(alg, seed=13)
        if crossed.verdict is Verdict.TRUE:
            three_way = check_crossed_controlled(alg, seed=13)
            if three_way.verdict.decided and three_way.holds() != is_controlled:
                violations.append(f"{inst.name}: crossed three-way vs direct")

    assert violations == []
    _report(3, "equivalence suite", started)


# --------------------------------------------------------------------------
# 4. positive instances
# --------------------------------------------------------------------------


def test_criterion_4_positive_instances():
    started = time.time()
    for p, n in ((2, 2), (3, 2), (2, 4)):
        alg = galois_skew_example(p, n)
        rep = check_controlled(alg)
        assert rep.verdict is Verdict.TRUE, (p, n)
        if p ** alg.dim <= 10**6:
            assert controlled_oracle(alg) is True, (p, n)

    tower = galois_skew_example(2, 4)
    corr = subring_correspondence(tower)
    assert corr.fields["count"] == 3
    wanted = sorted(
        tuple(sorted(tower.group.names[g] for g in sub)) for sub in subgroups(cyclic_group(4))
    )
    got = sorted(tuple(sorted(names)) for names, _ in corr.data)
    assert got == wanted
    _report(4, "positive controlled instances", started)


# --------------------------------------------------------------------------
# 5. extracted twisting data
# --------------------------------------------------------------------------


def test_criterion_5_cocycle_and_reconstruction():
    started = time.time()
    n_data = 0
    for inst in CORPUS:
        rep = detect_crossed_product(inst.alg, seed=1)
        if rep.verdict is not Verdict.TRUE:
            continue
        assert rep.data is not None, inst.name
        verify_crossed_identities(inst.alg, rep.data)
        assert verify_crossed_reconstruction(inst.alg, rep.data) is None, inst.name
        n_data += 1
    assert n_data >= 10  # group algebras and skew rings all carry unit data
    _report(5, f"twisting data on {n_data} crossed products", started)


# --------------------------------------------------------------------------
# 6. kernel sweep
# --------------------------------------------------------------------------


def test_criterion_6_kernel_sweep():
    started = time.time()
    fields = [GF(2), GF(3), GF(7), RATIONALS]
    rng = random.Random(123)
    cases = 0
    while cases < 1000:
        field = fields[cases % 4]
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = Matrix(
            field, [[field.random_scalar(rng) for _ in range(m)] for _ in range(n)]
        )
        reduced, rank = rref(mat)
        ns = nullspace(mat)
        assert rank + ns.dim == m
        again, rank2 = rref(reduced)
        assert again == reduced and rank2 == rank
        for row in ns.basis.entries:
            assert all(x == field.zero for x in mat.apply(row))

        # canonical equality: the row space survives a change of spanning set
        rows = list(reduced.entries[:rank])
        if rows:
            mixed = [rows[-1]] + rows[:-1]
            combo = rows[0]
            if len(rows) > 1:
                combo = tuple(
                    field_add(field, a, b) for a, b in zip(rows[0], rows[1])
                )
            mixed.append(combo)
            assert Subspace.from_vectors(field, m, mixed) == Subspace.from_vectors(
                field, m, rows
            )

        u = Subspace.from_vectors(
            field, m, [[field.random_scalar(rng) for _ in range(m)] for _ in range(2)]
        )
        v = Subspace.from_vectors(
            field, m, [[field.random_scalar(rng) for _ in range(m)] for _ in range(2)]
        )
        assert (
            subspace_sum(u, v).dim + subspace_intersect(u, v).dim == u.dim + v.dim
        )
        cases += 1

    elapsed = time.time() - started
    assert elapsed < 30.0, f"kernel sweep took {elapsed:.2f}s"
    _report(6, "kernel sweep, 1000 cases", started)


# --------------------------------------------------------------------------
# 7. CLI determinism
# --------------------------------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path, capsys):
    started = time.time()
    m3 = tmp_path / "m3.json"
    gf4 = tmp_path / "gf4.json"
    assert main(["build", "m3", "--field", "gf2", "--out", str(m3)]) == 0
    assert main(["build", "galois-skew", "--p", "2", "--n", "2", "--out", str(gf4)]) == 0
    capsys.readouterr()

    invocations = [
        ["check", str(m3), "--property", "controlled", "--json", "--seed", "0"],
        ["check", str(m3), "--property", "crossed-product", "--json", "--seed", "9"],
        ["check", str(gf4), "--property", "subrings", "--json", "--seed", "2"],
        ["check", str(gf4), "--property", "necessary", "--json", "--seed", "4"],
        ["oracle", str(gf4), "--what", "sub-bimodules", "--json"],
    ]
    for argv in invocations:
        code_a = main(argv)
        out_a = capsys.readouterr().out
        code_b = main(argv)
        out_b = capsys.readouterr().out
        assert code_a == code_b
        assert out_a.encode() == out_b.encode(), argv
        json.loads(out_a)  # well-formed machine output
    _report(7, "deterministic reports", started)
