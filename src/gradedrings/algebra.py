"""Finite-dimensional group-graded algebras given by structure constants.

An algebra R = (+)_g R_g over a field F is stored as one dimension per group
element plus the nonzero products of graded basis elements: b_{g,i} b_{h,j}
is kept as its coefficient vector in the basis of R_{gh} when it is not zero,
and every product not kept is zero.  The gradation is therefore structural:
products of homogeneous elements land in the right component by
construction, and what remains to verify is associativity and the unit laws
(validate_algebra).

GradedAlgebra alone turns that table into operators, all in the column
convention (column j is the image of the j-th source basis vector):
mult_ops(h, g) is multiplication by R_h's basis on R_g from either side,
component_ops(g) = mult_ops(e, g); flat_left_ops/flat_right_ops act on all
of R, identity_ops() is their slice at R_e's basis, subset_ops(S) that
slice cut to R_S, and projection_ops() gives the flat projections
pi_g : R -> R_g of the nonzero components.  A subspace of R is graded
exactly when every pi_g maps it into itself.

Elements are sparse dicts component -> coefficient tuple.  The structure is
immutable after construction, so the lazily cached operators stay valid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import InvalidInput
from .groups import FiniteGroup
from .linalg import EchelonBasis, Field, Matrix, Subspace, solve_vector


class GradedAlgebra:
    def __init__(
        self,
        field: Field,
        group: FiniteGroup,
        comp_dims: Sequence[int],
        structure: Mapping,
        unit: Sequence,
        *,
        basis_labels: Optional[Mapping] = None,
        meta: Optional[Mapping] = None,
    ):
        if group.identity is None or group._inverses is None:
            raise InvalidInput("grading group has no identity/inverses")
        dims = tuple(int(d) for d in comp_dims)
        if len(dims) != group.order or any(d < 0 for d in dims):
            raise InvalidInput("comp_dims must give one dimension >= 0 per group element")
        if dims[group.identity] < 1:
            raise InvalidInput("identity component must be nonzero (it carries the unit)")
        self.field = field
        self.group = group
        self.comp_dims = dims
        self.dim = sum(dims)
        self.offsets = tuple(sum(dims[:g]) for g in range(group.order))

        # (g, i, h) -> {j: coefficients of b_{g,i} * b_{h,j}}, nonzero ones only
        products: dict = {}
        for key, coeffs in structure.items():
            try:
                g, i, h, j = key
            except (TypeError, ValueError):
                raise InvalidInput(f"structure key must be (g, i, h, j), got {key!r}") from None
            if not (0 <= g < group.order and 0 <= h < group.order):
                raise InvalidInput(f"structure key {key!r} has a bad group index")
            if not (0 <= i < dims[g] and 0 <= j < dims[h]):
                raise InvalidInput(f"structure key {key!r} has a bad basis index")
            k = group.table[g][h]
            vec = field.vector(coeffs)
            if len(vec) != dims[k]:
                raise InvalidInput(
                    f"product coefficients at {key!r} must have length {dims[k]}"
                )
            if any(vec):
                products.setdefault((g, i, h), {})[j] = vec
        self._products = products

        u = field.vector(unit)
        if len(u) != dims[group.identity]:
            raise InvalidInput("unit must be a coefficient vector over the identity component")
        self.unit_coeffs = u

        if basis_labels is None:
            basis_labels = {}
        self._labels = dict(basis_labels)
        self.meta = dict(meta) if meta else {}
        self._flat_left = None
        self._flat_right = None
        self._component_ops = {}

    # --- basis bookkeeping -------------------------------------------------

    def label(self, g: int, i: int) -> str:
        return self._labels.get((g, i), f"{self.group.names[g]}:{i}")

    def product_coeffs(self, g: int, i: int, h: int, j: int) -> tuple:
        """Coefficients of b_{g,i} * b_{h,j} in the basis of R_{gh}."""
        vec = self._products.get((g, i, h), {}).get(j)
        if vec is not None:
            return vec
        return (self.field.zero,) * self.comp_dims[self.group.table[g][h]]

    def structure_items(self):
        """Nonzero structure entries as ((g, i, h, j), coeffs), sorted."""
        return sorted(
            ((g, i, h, j), vec)
            for (g, i, h), row in self._products.items()
            for j, vec in row.items()
        )

    def basis_of_flat(self, idx: int) -> tuple:
        for g in range(self.group.order - 1, -1, -1):
            if idx >= self.offsets[g]:
                return g, idx - self.offsets[g]
        raise InvalidInput("flat index out of range")

    # --- elements ----------------------------------------------------------

    def element(self, comps: Mapping) -> "Element":
        return Element(self, comps)

    def basis_element(self, g: int, i: int) -> "Element":
        zero, one = self.field.zero, self.field.one
        coeffs = tuple(one if k == i else zero for k in range(self.comp_dims[g]))
        return Element._trusted(self, {g: coeffs})

    def zero(self) -> "Element":
        return Element._trusted(self, {})

    def one(self) -> "Element":
        return Element._trusted(self, {self.group.identity: self.unit_coeffs})

    def from_flat(self, vec: Sequence) -> "Element":
        if len(vec) != self.dim:
            raise InvalidInput("flat vector has wrong length")
        comps = {}
        for g in range(self.group.order):
            d = self.comp_dims[g]
            if d:
                comps[g] = tuple(vec[self.offsets[g] : self.offsets[g] + d])
        return Element(self, comps)

    def flatten(self, x: "Element") -> tuple:
        vec = [self.field.zero] * self.dim
        for g, coeffs in x.comps.items():
            off = self.offsets[g]
            for i, c in enumerate(coeffs):
                vec[off + i] = c
        return tuple(vec)

    # --- multiplication operators -------------------------------------------

    def left_matrix(self, x: "Element") -> Matrix:
        """Matrix of v -> x*v on the flattened algebra (column convention)."""
        cols = [self.flatten(x * b) for b in self._flat_basis()]
        return Matrix.from_columns(self.field, cols)

    def right_matrix(self, x: "Element") -> Matrix:
        cols = [self.flatten(b * x) for b in self._flat_basis()]
        return Matrix.from_columns(self.field, cols)

    def _flat_basis(self) -> list:
        """The basis elements in flat order."""
        return [self.basis_element(*self.basis_of_flat(k)) for k in range(self.dim)]

    def flat_left_ops(self) -> tuple:
        """Left multiplication by each flat basis element, as n x n matrices."""
        if self._flat_left is None:
            self._flat_left = tuple(self.left_matrix(b) for b in self._flat_basis())
        return self._flat_left

    def flat_right_ops(self) -> tuple:
        if self._flat_right is None:
            self._flat_right = tuple(self.right_matrix(b) for b in self._flat_basis())
        return self._flat_right

    def mult_ops(self, h: int, g: int) -> tuple:
        """Multiplication by the basis of R_h, restricted to R_g.

        Returns (left_ops, right_ops): for each basis element b_{h,k}, the
        d_{hg} x d_g matrix of x -> b_{h,k} * x : R_g -> R_{hg} and the
        d_{gh} x d_g matrix of x -> x * b_{h,k} : R_g -> R_{gh}, also for d_g = 0.
        """
        dg, dims, table = self.comp_dims[g], self.comp_dims, self.group.table
        cols = lambda vecs, t: Matrix(self.field, vecs, dims[t]).transpose()
        lefts = tuple(
            cols([self.product_coeffs(h, k, g, j) for j in range(dg)], table[h][g])
            for k in range(dims[h])
        )
        rights = tuple(
            cols([self.product_coeffs(g, j, h, k) for j in range(dg)], table[g][h])
            for k in range(dims[h])
        )
        return lefts, rights

    def component_ops(self, g: int) -> tuple:
        """mult_ops(e, g): R_g as a bimodule over the identity component."""
        if g not in self._component_ops:
            self._component_ops[g] = self.mult_ops(self.group.identity, g)
        return self._component_ops[g]

    def identity_ops(self) -> tuple:
        """The flat operators of the R_e basis: R as an R_e-bimodule."""
        e = self.group.identity
        span = slice(self.offsets[e], self.offsets[e] + self.comp_dims[e])
        return self.flat_left_ops()[span], self.flat_right_ops()[span]

    def projection_ops(self) -> tuple:
        """The flat projection pi_g : R -> R_g of each nonzero component."""
        zero, one = self.field.zero, self.field.one
        out = []
        for off, d in zip(self.offsets, self.comp_dims):
            if d:
                rows = tuple(
                    tuple(one if c == r and off <= r < off + d else zero for c in range(self.dim))
                    for r in range(self.dim)
                )
                out.append(Matrix._trusted(self.field, rows, self.dim))
        return tuple(out)

    def subset_ops(self, subset) -> tuple:
        """identity_ops() cut to R_S, the sum of the components in S.

        R_e R_S R_e lies in R_S, so the rows and columns of R_S's flat
        indices (ascending) are the operators of R_S as an R_e-bimodule.
        """
        members = sorted({int(g) for g in subset})
        if members and not (0 <= members[0] and members[-1] < self.group.order):
            raise InvalidInput(f"subset {tuple(subset)!r} has a bad group index")
        idx = [
            k for g in members for k in range(self.offsets[g], self.offsets[g] + self.comp_dims[g])
        ]

        def cut(op):
            rows = op.entries
            return Matrix._trusted(
                self.field, tuple(tuple(rows[r][c] for c in idx) for r in idx), len(idx)
            )

        lefts, rights = self.identity_ops()
        return tuple(map(cut, lefts)), tuple(map(cut, rights))

    # --- derived algebras ----------------------------------------------------

    def identity_component_algebra(self) -> "GradedAlgebra":
        """The identity component as an algebra over the trivial group."""
        from .groups import trivial_group

        e = self.group.identity
        d = self.comp_dims[e]
        structure = {
            (0, i, 0, j): vec
            for (g, i, h), row in self._products.items()
            if g == h == e
            for j, vec in row.items()
        }
        labels = {(0, i): self.label(e, i) for i in range(d)}
        return GradedAlgebra(
            self.field, trivial_group(), (d,), structure, self.unit_coeffs, basis_labels=labels
        )

    def __repr__(self):
        dims = ", ".join(f"{self.group.names[g]}:{d}" for g, d in enumerate(self.comp_dims))
        return f"GradedAlgebra({self.field}, dim {self.dim} = {dims})"


class Element:
    """A sparse algebra element: dict group index -> coefficient tuple."""

    __slots__ = ("alg", "comps")

    def __init__(self, alg: GradedAlgebra, comps: Mapping):
        clean = {}
        for g, coeffs in comps.items():
            g = int(g)
            if not (0 <= g < alg.group.order):
                raise InvalidInput(f"no component {g}")
            vec = alg.field.vector(coeffs)
            if len(vec) != alg.comp_dims[g]:
                raise InvalidInput(
                    f"component {alg.group.names[g]} expects {alg.comp_dims[g]} coefficients"
                )
            if any(vec):
                clean[g] = vec
        self.alg = alg
        self.comps = clean

    @classmethod
    def _trusted(cls, alg: GradedAlgebra, comps: dict) -> "Element":
        """Wrap canonical coefficient tuples, unchecked; zero components are dropped."""
        x = object.__new__(cls)
        x.alg = alg
        x.comps = {g: v for g, v in comps.items() if any(v)}
        return x

    def _check_same(self, other: "Element"):
        if self.alg is not other.alg:
            raise InvalidInput("elements of different algebras")

    def coeffs(self, g: int) -> tuple:
        got = self.comps.get(g)
        if got is not None:
            return got
        return (self.alg.field.zero,) * self.alg.comp_dims[g]

    def support(self) -> tuple:
        return tuple(sorted(self.comps))

    def project(self, g: int) -> "Element":
        if not (0 <= g < self.alg.group.order):
            raise InvalidInput(f"no component {g}")
        if g in self.comps:
            return Element._trusted(self.alg, {g: self.comps[g]})
        return self.alg.zero()

    def is_zero(self) -> bool:
        return not self.comps

    def flat(self) -> tuple:
        return self.alg.flatten(self)

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        f = self.alg.field
        out = dict(self.comps)
        for g, coeffs in other.comps.items():
            if g in out:
                out[g] = tuple(map(f.add, out[g], coeffs))
            else:
                out[g] = coeffs
        return Element._trusted(self.alg, out)

    def __neg__(self) -> "Element":
        f = self.alg.field
        return Element._trusted(self.alg, {g: tuple(map(f.neg, v)) for g, v in self.comps.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        f = self.alg.field
        c = f.coerce(c)
        return Element._trusted(self.alg, {g: tuple(f.scale(c, v)) for g, v in self.comps.items()})

    def __rmul__(self, c) -> "Element":
        return self.scale(c)

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return self.scale(other)
        self._check_same(other)
        alg = self.alg
        gtab = alg.group.table
        products = alg._products
        # per target component: the products x_i y_j and the structure
        # vectors they weight, summed in one pass by Field.combine
        terms: dict = {}
        for g, xg in self.comps.items():
            for h, yh in other.comps.items():
                k = gtab[g][h]
                if k not in terms:
                    terms[k] = ([], [])
                cs, vecs = terms[k]
                for i, xi in enumerate(xg):
                    row = products.get((g, i, h)) if xi else None
                    if row is None:
                        continue
                    for j, vec in row.items():
                        yj = yh[j]
                        if yj:
                            cs.append(xi * yj)
                            vecs.append(vec)
        combine = alg.field.combine
        return Element._trusted(
            alg, {k: tuple(combine(cs, vecs)) for k, (cs, vecs) in terms.items() if cs}
        )

    def __eq__(self, other):
        return isinstance(other, Element) and self.alg is other.alg and self.comps == other.comps

    def __hash__(self):
        return hash(tuple(sorted(self.comps.items())))

    def __repr__(self):
        if not self.comps:
            return "0"
        parts = []
        for g in sorted(self.comps):
            for i, c in enumerate(self.comps[g]):
                if c:
                    lbl = self.alg.label(g, i)
                    parts.append(lbl if c == self.alg.field.one else f"{c}*{lbl}")
        return " + ".join(parts)


@dataclass
class AlgebraDiagnostics:
    ok: bool
    problems: list
    witness: Optional[tuple] = None  # flat basis index triple for associativity failures

    def __bool__(self):
        return self.ok


def validate_algebra(alg: GradedAlgebra) -> AlgebraDiagnostics:
    """Unit laws plus the full associativity scan over basis triples.

    Each basis product b*c is computed once, so a triple costs the two
    products (ab)c and a(bc); when ab and bc are both zero, so are both sides.
    """
    problems = []
    one = alg.one()
    basis = alg._flat_basis()
    for k, b in enumerate(basis):
        if one * b != b or b * one != b:
            g, i = alg.basis_of_flat(k)
            problems.append(f"unit law fails at basis element {alg.label(g, i)}")
            return AlgebraDiagnostics(False, problems)
    prods = [[b * c for c in basis] for b in basis]
    for a_i, a in enumerate(basis):
        for b_i, ab in enumerate(prods[a_i]):
            for c_i, (c, bc) in enumerate(zip(basis, prods[b_i])):
                if (ab.comps or bc.comps) and ab * c != a * bc:
                    ga, ia = alg.basis_of_flat(a_i)
                    gb, ib = alg.basis_of_flat(b_i)
                    gc, ic = alg.basis_of_flat(c_i)
                    problems.append(
                        "associativity fails at "
                        f"({alg.label(ga, ia)}, {alg.label(gb, ib)}, {alg.label(gc, ic)})"
                    )
                    return AlgebraDiagnostics(False, problems, witness=(a_i, b_i, c_i))
    return AlgebraDiagnostics(True, problems)


def is_invertible(x: Element) -> Optional[Element]:
    """The two-sided inverse of x, or None.

    In a finite-dimensional unital algebra a one-sided inverse is two-sided:
    solving x*y = 1 settles invertibility.
    """
    alg = x.alg
    lx = alg.left_matrix(x)
    sol = solve_vector(lx, alg.flatten(alg.one()))
    if sol is None:
        return None
    return alg.from_flat(sol)


class GradedSubspace:
    """A graded subspace: one Subspace per component (zero ones omitted)."""

    __slots__ = ("alg", "comps")

    def __init__(self, alg: GradedAlgebra, comps: Mapping):
        clean = {}
        for g, sub in comps.items():
            g = int(g)
            if not (0 <= g < alg.group.order):
                raise InvalidInput(f"no component {g}")
            if not isinstance(sub, Subspace):
                raise InvalidInput("components must be Subspace values")
            if sub.ambient_dim != alg.comp_dims[g] or sub.field != alg.field:
                raise InvalidInput(f"component {alg.group.names[g]} has wrong ambient space")
            if sub.dim:
                clean[g] = sub
        self.alg = alg
        self.comps = clean

    @classmethod
    def full(cls, alg: GradedAlgebra, subset) -> "GradedSubspace":
        comps = {}
        for g in subset:
            g = int(g)
            if not (0 <= g < alg.group.order):
                raise InvalidInput(f"no component {g}")
            comps[g] = Subspace.full(alg.field, alg.comp_dims[g])
        return cls(alg, comps)

    @classmethod
    def zero(cls, alg: GradedAlgebra) -> "GradedSubspace":
        return cls(alg, {})

    def component(self, g: int) -> Subspace:
        got = self.comps.get(g)
        if got is not None:
            return got
        return Subspace.zero(self.alg.field, self.alg.comp_dims[g])

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.comps.values())

    def support(self) -> tuple:
        return tuple(sorted(self.comps))

    def flat(self) -> Subspace:
        """The same space embedded in the flattened algebra."""
        alg = self.alg
        zero = alg.field.zero
        vecs = []
        for g in sorted(self.comps):
            off = alg.offsets[g]
            for row in self.comps[g].basis.entries:
                v = [zero] * alg.dim
                v[off : off + len(row)] = row
                vecs.append(v)
        return Subspace.from_vectors(alg.field, alg.dim, vecs)

    def contains(self, x: Element) -> bool:
        if x.alg is not self.alg:
            raise InvalidInput("element of a different algebra")
        return all(self.component(g).contains(coeffs) for g, coeffs in x.comps.items())

    def __eq__(self, other):
        return (
            isinstance(other, GradedSubspace)
            and self.alg is other.alg
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash(tuple(sorted((g, s) for g, s in self.comps.items())))

    def __repr__(self):
        dims = ", ".join(f"{self.alg.group.names[g]}:{s.dim}" for g, s in sorted(self.comps.items()))
        return f"GradedSubspace({dims or '0'})"


def graded_subspace_from_flat(alg: GradedAlgebra, w: Subspace) -> Optional[GradedSubspace]:
    """Decompose a flat subspace into components, or None if it is not graded.

    W lies in the direct sum of its projections pi_g W, with equality
    exactly when W is graded: so W is graded when the dimensions of the
    pi_g W add up to dim W, and those projections are then its components.
    """
    if w.ambient_dim != alg.dim or w.field != alg.field:
        raise InvalidInput("subspace does not live in the flattened algebra")
    comps = {
        g: Subspace.from_vectors(alg.field, d, [row[off : off + d] for row in w.basis.entries])
        for g, (off, d) in enumerate(zip(alg.offsets, alg.comp_dims))
        if d
    }
    if sum(s.dim for s in comps.values()) != w.dim:
        return None
    return GradedSubspace(alg, comps)


def component_product(s: GradedSubspace, t: GradedSubspace) -> GradedSubspace:
    """The graded span of products of the two graded subspaces."""
    if s.alg is not t.alg:
        raise InvalidInput("graded subspaces of different algebras")
    alg = s.alg
    accs: dict = {}
    for g, sg in s.comps.items():
        for h, th in t.comps.items():
            k = alg.group.table[g][h]
            dk = alg.comp_dims[k]
            if dk == 0:
                continue
            acc = accs.get(k)
            if acc is None:
                acc = accs[k] = EchelonBasis(alg.field, dk)
            for u in sg.basis.entries:
                xu = Element(alg, {g: u})
                for v in th.basis.entries:
                    prod = xu * Element(alg, {h: v})
                    acc.add(prod.coeffs(k))
    return GradedSubspace(alg, {k: acc.to_subspace() for k, acc in accs.items() if acc.rank})
