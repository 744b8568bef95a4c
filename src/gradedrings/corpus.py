"""A fixed corpus of small graded algebras for cross-validation runs.

Every instance is at most 8-dimensional over GF(2) or GF(3), small enough
for the brute-force oracles, and the collection deliberately mixes
positives (Galois-type skew rings, twisted variants, trivially graded
simple rings) with structured negatives (group algebras, inner actions,
split bases, dead components) so that decision procedures and oracles are
compared on both answers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from .algebra import GradedAlgebra
from .builders import (
    crossed_product,
    finite_field_algebra,
    full_matrix_algebra,
    galois_skew_example,
    group_algebra,
    inner_automorphism_matrix,
    m3_example,
    matrix_units_algebra,
    skew_group_ring,
    twisted_group_algebra,
)
from .errors import InvalidInput
from .groups import (
    FiniteGroup,
    cyclic_group,
    klein_four_group,
    symmetric_group,
    trivial_group,
)
from .linalg import GF, Field, Matrix


@dataclass
class Instance:
    """One named corpus member."""

    name: str
    kind: str
    alg: GradedAlgebra

    def __repr__(self):
        return f"Instance({self.name}: {self.alg!r})"


# --------------------------------------------------------------------------
# cocycles
# --------------------------------------------------------------------------


def random_cocycle(
    field: Field,
    group: FiniteGroup,
    rng: random.Random,
    twist: Optional[Callable[[int, int], object]] = None,
) -> dict:
    """A random normalized 2-cocycle with values in the scalar units.

    Any function b on the group with b(e) = 1 yields the coboundary
    alpha(g, h) = b(g) b(h) / b(gh), and multiplying a cocycle by a
    bimultiplicative twist preserves the cocycle identity, so the result
    is valid by construction.  The crossed-product builder re-verifies it
    anyway.
    """
    if field.p == 0:
        raise InvalidInput("random unit scalars are drawn from a prime field")
    e = group.identity
    b = [
        field.one if g == e else field.coerce(rng.randrange(1, field.p))
        for g in range(group.order)
    ]
    alpha = {}
    for g in range(group.order):
        for h in range(group.order):
            val = field.div(field.mul(b[g], b[h]), b[group.mul(g, h)])
            if twist is not None:
                val = field.mul(val, field.coerce(twist(g, h)))
            alpha[(g, h)] = val
    return alpha


def cyclic_twist(n: int, c: int) -> Callable[[int, int], int]:
    """The carry cocycle on Z/n: c when i + j wraps past n, else 1."""
    return lambda i, j: c if i + j >= n else 1


def klein_twist(c: int) -> Callable[[int, int], int]:
    """A bicharacter on the Klein group, pairing opposite coordinates."""
    return lambda g, h: c if (g % 2) * (h // 2) % 2 else 1


# --------------------------------------------------------------------------
# hand-built negatives
# --------------------------------------------------------------------------


def dual_numbers_graded(field: Field) -> GradedAlgebra:
    """F[x]/(x^2) with x in the nonidentity degree; the product R_1 R_1 is 0."""
    structure = {
        (0, 0, 0, 0): (field.one,),
        (0, 0, 1, 0): (field.one,),
        (1, 0, 0, 0): (field.one,),
    }
    labels = {(0, 0): "1", (1, 0): "x"}
    return GradedAlgebra(field, cyclic_group(2), (1, 1), structure, (field.one,), basis_labels=labels)


def dead_component_line(field: Field) -> GradedAlgebra:
    """The ground field graded by Z/3 with both nonidentity components zero."""
    structure = {(0, 0, 0, 0): (field.one,)}
    return GradedAlgebra(field, cyclic_group(3), (1, 0, 0), structure, (field.one,))


def upper_triangular_z2(field: Field) -> GradedAlgebra:
    """Upper triangular 2x2 matrices, diagonal in degree 0 and e12 in degree 1."""
    # basis: degree 0 -> e11, e22; degree 1 -> e12
    one = field.one
    structure = {
        (0, 0, 0, 0): (one, 0),
        (0, 1, 0, 1): (0, one),
        (0, 0, 1, 0): (one,),
        (1, 0, 0, 1): (one,),
    }
    labels = {(0, 0): "e11", (0, 1): "e22", (1, 0): "e12"}
    return GradedAlgebra(
        field, cyclic_group(2), (2, 1), structure, (one, one), basis_labels=labels
    )


def checkerboard_m2(field: Field) -> GradedAlgebra:
    """M_2 with diagonal matrix units in degree 0, off-diagonal in degree 1."""
    return matrix_units_algebra(field, cyclic_group(2), (0, 1))


def split_base_swap(field: Field) -> GradedAlgebra:
    """F x F acted on by the coordinate swap; the base ring is not simple."""
    base = GradedAlgebra(
        field,
        trivial_group(),
        (2,),
        {(0, 0, 0, 0): (field.one, 0), (0, 1, 0, 1): (0, field.one)},
        (field.one, field.one),
    )
    swap = Matrix(field, [[0, field.one], [field.one, 0]])
    return skew_group_ring(base, cyclic_group(2), [Matrix.identity(field, 2), swap])


def inner_conjugation_skew(field: Field) -> GradedAlgebra:
    """M_2 twisted by conjugation with the coordinate swap; the action is inner."""
    base = full_matrix_algebra(field, 2)
    w = base.element({0: (0, field.one, field.one, 0)})
    sigma = inner_automorphism_matrix(base, w)
    return skew_group_ring(base, cyclic_group(2), [Matrix.identity(field, 4), sigma])


def untwisted_field_extension(p: int, n: int) -> GradedAlgebra:
    """GF(p^n)[Z/n] with the identity action: the Galois example, de-fanged."""
    base, _ = finite_field_algebra(p, n)
    eye = Matrix.identity(base.field, n)
    return skew_group_ring(base, cyclic_group(n), [eye] * n)


def twisted_galois_z2(p: int, c: int) -> GradedAlgebra:
    """GF(p^2) with Frobenius action and the scalar cocycle alpha(1,1) = c."""
    base, frob = finite_field_algebra(p, 2)
    field = base.field
    alpha = {
        (0, 0): base.one().flat(),
        (0, 1): base.one().flat(),
        (1, 0): base.one().flat(),
        (1, 1): tuple(field.mul(field.coerce(c), x) for x in base.one().flat()),
    }
    return crossed_product(base, cyclic_group(2), [Matrix.identity(field, 2), frob], alpha)


# --------------------------------------------------------------------------
# the corpus
# --------------------------------------------------------------------------


def standard_corpus() -> List[Instance]:
    """The fixed list used by the oracle-agreement and equivalence runs."""
    f2, f3 = GF(2), GF(3)
    rng = random.Random(20260819)
    out: List[Instance] = []

    def add(name, kind, alg):
        out.append(Instance(name, kind, alg))

    # plain group algebras: never controlled beyond the trivial group,
    # since all components are isomorphic over the ground field
    for field, tag in ((f2, "gf2"), (f3, "gf3")):
        add(f"{tag}-z2", "group-algebra", group_algebra(field, cyclic_group(2)))
        add(f"{tag}-z3", "group-algebra", group_algebra(field, cyclic_group(3)))
        add(f"{tag}-z4", "group-algebra", group_algebra(field, cyclic_group(4)))
        add(f"{tag}-v4", "group-algebra", group_algebra(field, klein_four_group()))
        add(f"{tag}-s3", "group-algebra", group_algebra(field, symmetric_group(3)))
    add("gf2-z5", "group-algebra", group_algebra(f2, cyclic_group(5)))

    # twisted group algebras over GF(3); GF(2) admits only the trivial twist
    add(
        "gf3-z2-twisted",
        "twisted-group-algebra",
        twisted_group_algebra(f3, cyclic_group(2), random_cocycle(f3, cyclic_group(2), rng, cyclic_twist(2, 2))),
    )
    add(
        "gf3-z3-coboundary",
        "twisted-group-algebra",
        twisted_group_algebra(f3, cyclic_group(3), random_cocycle(f3, cyclic_group(3), rng)),
    )
    add(
        "gf3-z4-twisted",
        "twisted-group-algebra",
        twisted_group_algebra(f3, cyclic_group(4), random_cocycle(f3, cyclic_group(4), rng, cyclic_twist(4, 2))),
    )
    add(
        "gf3-v4-twisted",
        "twisted-group-algebra",
        twisted_group_algebra(f3, klein_four_group(), random_cocycle(f3, klein_four_group(), rng, klein_twist(2))),
    )
    add(
        "gf3-v4-coboundary",
        "twisted-group-algebra",
        twisted_group_algebra(f3, klein_four_group(), random_cocycle(f3, klein_four_group(), rng)),
    )

    # skew group rings: Galois actions are outer and land controlled,
    # inner and identity actions do not
    add("galois-2-2", "skew-group", galois_skew_example(2, 2))
    add("galois-3-2", "skew-group", galois_skew_example(3, 2))
    add("gf2-m2-inner", "skew-group", inner_conjugation_skew(f2))
    add("gf3-m2-inner", "skew-group", inner_conjugation_skew(f3))
    add("gf2-untwisted-ext", "skew-group", untwisted_field_extension(2, 2))
    add("gf2-split-swap", "skew-group", split_base_swap(f2))
    add("gf3-split-swap", "skew-group", split_base_swap(f3))

    # a genuinely twisted Galois crossed product (the twist must sit in the
    # fixed field, so GF(3) is the smallest case with a nontrivial choice)
    add("galois-3-2-twisted", "crossed-product", twisted_galois_z2(3, 2))

    # trivially graded rings: controlled exactly when the ring is simple
    add("gf2-point", "trivial-grading", group_algebra(f2, trivial_group()))
    add("gf2-m2", "trivial-grading", full_matrix_algebra(f2, 2))
    add("gf3-m2", "trivial-grading", full_matrix_algebra(f3, 2))
    add("gf2-field-ext", "trivial-grading", finite_field_algebra(2, 3)[0])

    # structured negatives
    add("gf2-dual-numbers", "perturbed", dual_numbers_graded(f2))
    add("gf3-dual-numbers", "perturbed", dual_numbers_graded(f3))
    add("gf2-dead-component", "perturbed", dead_component_line(f2))
    add("gf2-upper-triangular", "perturbed", upper_triangular_z2(f2))
    add("gf2-m2-checkerboard", "perturbed", checkerboard_m2(f2))
    add("gf3-m2-checkerboard", "perturbed", checkerboard_m2(f3))

    return out


def oracle_scale_corpus() -> List[Instance]:
    """Corpus members cheap enough for every oracle, plus the M_3 pin."""
    out = [inst for inst in standard_corpus() if inst.alg.dim <= 8]
    out.append(Instance("gf2-m3", "matrix-grading", m3_example(GF(2))))
    return out
