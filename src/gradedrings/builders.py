"""Constructors for the graded algebras the library studies.

Everything here emits a GradedAlgebra whose structure constants already
encode the gradation, so the builders carry the burden of getting the data
right: every downstream decision procedure assumes the product is genuinely
associative and graded.  Matrix rings come from one builder,
matrix_units_algebra (an elementary grading: e_ij in degree d_i^-1 d_j).
Crossed products check their data with crossed_identity_failure, the one
statement of the identities on (sigma, alpha), and reject bad input by the
identity and the elements where it fails; analysis checks the data it
extracts from a ring with the same function.  With L_x and R_x the left
and right multiplications of the base, an automorphism and the twisted
composition are checked as operator equations on the base (sigma L_i =
L_sigma(b_i) sigma, R_alpha sigma_g sigma_h = L_alpha sigma_gh), and the
structure entries of b_i u_g * b_j u_h are the columns of
R_alpha(g,h) L_i sigma_g.
"""
from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .algebra import Element, GradedAlgebra, is_invertible
from .errors import InvalidInput
from .groups import FiniteGroup, cyclic_group, trivial_group
from .linalg import GF, Field, Matrix, nullspace
from .poly import _powmod, lowest_irreducible


# --- base algebras ------------------------------------------------------------


def matrix_units_algebra(
    field: Field, group: FiniteGroup, degrees: Sequence[int]
) -> GradedAlgebra:
    """M_n(F) with the elementary grading of degrees = (d_1, ..., d_n).

    The matrix unit e_ij lies in degree d_i^-1 d_j, so e_ij e_jl = e_il
    respects the grading.  Each component lists its units in (row, col)
    order, labelled e<i><j> from 1 (e<i>,<j> from n = 10 on, so that no
    two labels coincide); the unit is the sum of the e_ii.
    """
    n = len(degrees)
    if n < 1:
        raise InvalidInput("matrix size must be positive")
    if any(not 0 <= d < group.order for d in degrees):
        raise InvalidInput("degrees must be group element indices")
    place = {}  # (i, j) -> (degree, position in that component)
    dims = [0] * group.order
    for i in range(n):
        for j in range(n):
            g = group.table[group.inv(degrees[i])][degrees[j]]
            place[(i, j)] = (g, dims[g])
            dims[g] += 1
    structure = {}
    for (i, j), (g, a) in place.items():
        for l in range(n):
            k, c = place[(i, l)]
            vec = [0] * dims[k]
            vec[c] = 1
            structure[(g, a, *place[(j, l)])] = vec
    unit = [0] * dims[group.identity]
    for i in range(n):
        unit[place[(i, i)][1]] = 1
    sep = "," if n > 9 else ""
    labels = {v: f"e{i + 1}{sep}{j + 1}" for (i, j), v in place.items()}
    return GradedAlgebra(field, group, dims, structure, unit, basis_labels=labels)


def full_matrix_algebra(field: Field, n: int) -> GradedAlgebra:
    """M_n(F) on the trivial group, basis the matrix units in (row, col) order."""
    return matrix_units_algebra(field, trivial_group(), (0,) * n)


def finite_field_algebra(p: int, n: int):
    """GF(p^n) as an n-dimensional GF(p)-algebra, with its Frobenius matrix.

    Returns (algebra, frobenius) where frobenius is the matrix of x -> x^p
    in the power basis 1, x, ..., x^(n-1) of GF(p)[x] modulo the first
    monic irreducible of degree n.
    """
    field = GF(p)
    modulus = lowest_irreducible(p, n)

    def reduced_power(e: int) -> list:
        out = _powmod(p, [0, 1], e, modulus)
        return out + [0] * (n - len(out))

    structure = {}
    for i in range(n):
        for j in range(n):
            structure[(0, i, 0, j)] = reduced_power(i + j)
    unit = [1] + [0] * (n - 1)
    labels = {(0, 0): "1", (0, 1): "x"}
    for i in range(2, n):
        labels[(0, i)] = f"x^{i}"
    alg = GradedAlgebra(
        field,
        trivial_group(),
        (n,),
        structure,
        unit,
        basis_labels=labels,
        meta={"modulus": [c % p for c in modulus]},
    )
    frob_cols = [reduced_power(i * p) for i in range(n)]
    return alg, Matrix.from_columns(field, frob_cols)


def group_algebra(field: Field, group: FiniteGroup) -> GradedAlgebra:
    """The group algebra F[G] with its natural G-gradation."""
    structure = {}
    for g in range(group.order):
        for h in range(group.order):
            structure[(g, 0, h, 0)] = (field.one,)
    labels = {(g, 0): f"u[{group.names[g]}]" for g in range(group.order)}
    return GradedAlgebra(
        field,
        group,
        (1,) * group.order,
        structure,
        (field.one,),
        basis_labels=labels,
    )


# --- crossed products ---------------------------------------------------------


def _as_base_element(base: GradedAlgebra, coeffs) -> Element:
    if isinstance(coeffs, Element):
        if coeffs.alg is not base:
            raise InvalidInput("element belongs to a different base algebra")
        return coeffs
    return base.element({0: coeffs})


def _first_differing_column(a: Matrix, b: Matrix) -> Optional[int]:
    """The lowest j where columns j of a and b differ, or None."""
    pairs = zip(a.transpose().entries, b.transpose().entries)
    return next((j for j, (x, y) in enumerate(pairs) if x != y), None)


def validate_automorphism(base: GradedAlgebra, s: Matrix, who: str = "sigma"):
    d = base.dim
    if s.shape != (d, d) or s.field != base.field:
        raise InvalidInput(f"{who} is not a {d}x{d} matrix over the base field")
    if nullspace(s).dim:
        raise InvalidInput(f"{who} is not invertible")
    unit = base.flatten(base.one())
    if s.apply(unit) != unit:
        raise InvalidInput(f"{who} does not fix the unit")
    # s(b_i b_j) = s(b_i) s(b_j) for all j: s L_i = L_{s(b_i)} s
    for i, left in enumerate(base.flat_left_ops()):
        j = _first_differing_column(s @ left, base.left_matrix(base.from_flat(s.column(i))) @ s)
        if j is not None:
            raise InvalidInput(f"{who} is not multiplicative at basis pair ({i}, {j})")


def crossed_identity_failure(
    base: GradedAlgebra, group: FiniteGroup, sigma, alpha: Mapping
) -> Optional[str]:
    """The first crossed-product identity that (sigma, alpha) break, or None.

    sigma[g] is the matrix of an automorphism of the trivially graded base
    and alpha[(g, h)] an invertible base element, for all g, h in the
    group.  The identities, checked in this order on basis elements b:
    sigma_e = 1; alpha(e,g) = alpha(g,e) = 1; twisted composition
    sigma_g sigma_h(b) alpha(g,h) = alpha(g,h) sigma_gh(b), i.e.
    sigma_g sigma_h = Ad(alpha(g,h)) sigma_gh; and the cocycle identity
    alpha(g,h) alpha(gh,t) = sigma_g(alpha(h,t)) alpha(g,ht).
    """
    names = group.names
    e = group.identity
    n = group.order
    if not sigma[e].is_identity():
        return "sigma at the identity must be the identity map"
    one = base.one()
    for g in range(n):
        if alpha[(g, e)] != one or alpha[(e, g)] != one:
            return f"alpha must be normalized: alpha(e,g) = alpha(g,e) = 1 fails at {names[g]}"

    for g in range(n):
        for h in range(n):
            a = alpha[(g, h)]
            lhs, rhs = sigma[g] @ sigma[h], sigma[group.table[g][h]]
            if a != one:  # R_1 and L_1 are the identity
                lhs, rhs = base.right_matrix(a) @ lhs, base.left_matrix(a) @ rhs
            i = _first_differing_column(lhs, rhs)
            if i is not None:
                return (
                    "twisted composition sigma_g sigma_h = Ad(alpha(g,h)) sigma_gh fails "
                    f"at ({names[g]},{names[h]}) on basis element {i}"
                )
    dots = base.field.dots
    for g in range(n):
        rows = sigma[g].entries  # canonical, so the images go in unchecked
        for h in range(n):
            gh = group.table[g][h]
            for t in range(n):
                ht = group.table[h][t]
                lhs = alpha[(g, h)] * alpha[(gh, t)]
                image = dots(rows, base.flatten(alpha[(h, t)]))
                sa = Element(base, {k: x for k, x in enumerate(image) if x})
                if lhs != sa * alpha[(g, ht)]:
                    return f"cocycle identity fails at triple ({names[g]},{names[h]},{names[t]})"
    return None


def crossed_product(
    base: GradedAlgebra,
    group: FiniteGroup,
    sigma: Sequence[Matrix],
    alpha: Optional[Mapping] = None,
    *,
    meta: Optional[Mapping] = None,
) -> GradedAlgebra:
    """Crossed product of a trivially graded base by a group.

    sigma gives one automorphism matrix per group element (identity at e);
    alpha maps pairs (g, h) to invertible base elements, defaulting to 1.
    The product is (a u_g)(b u_h) = a sigma_g(b) alpha(g,h) u_{gh}.  Each
    sigma_g must be an automorphism and each alpha(g,h) invertible; then
    crossed_identity_failure names the first identity that fails, if any,
    and the input is rejected with that message.
    """
    if base.group.order != 1:
        raise InvalidInput("base must be an algebra on the trivial group")
    if group.identity is None or group._inverses is None:
        raise InvalidInput("need a genuine group")
    field = base.field
    d = base.dim
    n = group.order
    sigma = list(sigma)
    if len(sigma) != n:
        raise InvalidInput("need one automorphism per group element")
    for g in range(n):
        validate_automorphism(base, sigma[g], f"sigma[{group.names[g]}]")

    one = base.one()
    alpha_elems = {}
    alpha = dict(alpha or {})
    for g in range(n):
        for h in range(n):
            val = alpha.pop((g, h), None)
            alpha_elems[(g, h)] = one if val is None else _as_base_element(base, val)
    if alpha:
        raise InvalidInput(f"alpha has keys outside GxG: {sorted(alpha)}")
    for (g, h), a in alpha_elems.items():
        if is_invertible(a) is None:
            raise InvalidInput(
                f"alpha({group.names[g]},{group.names[h]}) is not invertible"
            )
    failure = crossed_identity_failure(base, group, sigma, alpha_elems)
    if failure is not None:
        raise InvalidInput(failure)

    # b_i u_g * b_j u_h = b_i sigma_g(b_j) alpha(g,h) u_gh: column j of R_alpha L_i sigma_g,
    # where R_alpha = I when alpha(g,h) = 1, as in every skew group ring
    structure = {}
    for g in range(n):
        twisted = [left @ sigma[g] for left in base.flat_left_ops()]
        for h in range(n):
            a = alpha_elems[(g, h)]
            ops = twisted if a == one else [base.right_matrix(a) @ op for op in twisted]
            for i, op in enumerate(ops):
                for j, vec in enumerate(op.transpose().entries):
                    if any(vec):
                        structure[(g, i, h, j)] = vec
    labels = {}
    for g in range(n):
        for i in range(d):
            labels[(g, i)] = f"{base.label(0, i)}*u[{group.names[g]}]"
    return GradedAlgebra(
        field,
        group,
        (d,) * n,
        structure,
        base.unit_coeffs,
        basis_labels=labels,
        meta=dict(meta) if meta else {},
    )


def skew_group_ring(
    base: GradedAlgebra,
    group: FiniteGroup,
    sigma: Sequence[Matrix],
    *,
    meta: Optional[Mapping] = None,
) -> GradedAlgebra:
    """Crossed product with trivial twisting cocycle."""
    return crossed_product(base, group, sigma, None, meta=meta)


def twisted_group_algebra(field: Field, group: FiniteGroup, alpha: Mapping) -> GradedAlgebra:
    """Crossed product of the ground field by G: trivial action, scalar cocycle."""
    base = GradedAlgebra(field, trivial_group(), (1,), {(0, 0, 0, 0): (field.one,)}, (field.one,))
    n = group.order
    sigma = [Matrix.identity(field, 1)] * n
    alpha_elems = {key: (field.coerce(c),) for key, c in alpha.items()}
    return crossed_product(base, group, sigma, alpha_elems)


def galois_skew_example(p: int, n: int) -> GradedAlgebra:
    """GF(p^n) twisted by its Galois group over GF(p), graded by Z/n.

    The Frobenius x -> x^p generates the Galois group; the k-th component
    acts through its k-th power and the cocycle is trivial.  The modulus
    polynomial is recorded in the metadata for reproducibility.
    """
    if n < 2:
        raise InvalidInput("need n >= 2 for a nontrivial Galois grading")
    base, frob = finite_field_algebra(p, n)
    group = cyclic_group(n)
    sigma = [Matrix.identity(base.field, n)]
    for _ in range(n - 1):
        sigma.append(frob @ sigma[-1])
    meta = {"kind": "galois-skew", "p": p, "n": n, "modulus": base.meta["modulus"]}
    return skew_group_ring(base, group, sigma, meta=meta)


def m3_example(field: Field) -> GradedAlgebra:
    """The 3x3 matrix algebra with its checkerboard Z/2-gradation.

    Degrees (0, 1, 0): even component e11, e13, e22, e31, e33 (dimension
    5); odd component e12, e21, e23, e32 (dimension 4).
    """
    alg = matrix_units_algebra(field, cyclic_group(2), (0, 1, 0))
    alg.meta["kind"] = "m3"
    return alg


def inner_automorphism_matrix(base: GradedAlgebra, u: Element) -> Matrix:
    """Matrix of a -> u a u^(-1) on a trivially graded algebra."""
    if base.group.order != 1:
        raise InvalidInput("inner automorphisms are built on trivially graded algebras")
    if isinstance(u, (tuple, list)):
        u = base.element({0: u})
    inv = is_invertible(u)
    if inv is None:
        raise InvalidInput("conjugating element is not invertible")
    return base.left_matrix(u) @ base.right_matrix(inv)
