"""Finite-dimensional group-graded algebras given by structure constants.

An algebra R = (+)_g R_g over a field F is stored as one dimension per group
element plus one flat sparse product table.  The graded basis is numbered
component by component (R_g's starts at offsets[g]); _place[k] is the
(g, i) of flat index k, and _table[i][j] holds b_i b_j as {flat k: c},
nonzero products with nonzero coefficients only.  The constructor fills it
from coefficient vectors over R_gh keyed by (g, i, h, j), in one loop that
the builders (a Mapping) and `serialize` (a stream of a file's rows) share:
each entry is checked once and its sparse product built in the same pass.
So the gradation is structural: products of homogeneous elements land in
the right component by construction, and what remains to verify is
associativity and the unit laws (validate_algebra, which reads the table
dicts directly).  An Element is a sparse vector in the same flat
coordinates, {flat k: nonzero canonical c}.

Everything reads the one table.  GradedAlgebra alone turns it into
operators, all in the column convention (column j is the image of the j-th
source basis vector), and those of basis elements through one builder,
_ops: for each flat multiplier b, x -> bx and x -> xb on the span of some
flat indices.  mult_ops(h, g) is multiplication by R_h's basis on R_g from
either side, component_ops(g) = mult_ops(e, g); flat_left_ops and
flat_right_ops act on all of R, subset_ops(S) is R_S as an R_e-bimodule,
identity_ops() = subset_ops(G) is R itself, and projection_ops() gives the
flat projections pi_g : R -> R_g of the nonzero components.  left_matrix(x) and
right_matrix(x), multiplication by one element x, take one table product
(_product, the loop of Element products) with each flat basis vector.  A
subspace of R is graded exactly when every pi_g maps it into itself.  The
structure is immutable after construction, so the lazily cached operators
stay valid.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from typing import Optional

from .errors import InvalidInput
from .groups import FiniteGroup, trivial_group
from .linalg import EchelonBasis, Field, Matrix, Subspace, solve_vector


class GradedAlgebra:
    def __init__(
        self,
        field: Field,
        group: FiniteGroup,
        comp_dims: Sequence[int],
        structure: Mapping | Iterable[tuple],
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
        self.offsets = offsets = tuple(sum(dims[:g]) for g in range(group.order))
        self._place = tuple((g, i) for g, d in enumerate(dims) for i in range(d))

        self._table = self._product_table(structure)
        if not isinstance(unit, (list, tuple)):
            raise InvalidInput("coefficient vector must be a list")
        u = field.vector(unit)
        if len(u) != dims[group.identity]:
            raise InvalidInput("unit must be a coefficient vector over the identity component")
        self.unit_coeffs = u
        self._unit = {offsets[group.identity] + r: c for r, c in enumerate(u) if c}

        self._labels = dict(basis_labels or {})
        self.meta = dict(meta) if meta else {}
        self._flat = None
        self._component_ops = {}

    def _product_table(self, structure) -> list:
        """The flat table of structure, in one pass that checks each entry once.

        structure maps each key (g, i, h, j) to the coefficients of
        b_{g,i} b_{h,j} over R_gh, as a Mapping or as an iterable of rows
        [g, i, h, j, coeffs], which is how `serialize` streams the rows of
        an algebra file.  An entry is refused for a row that is not a list
        of five, a key that is not four non-negative ints, an index out of
        range, a repeated key, coefficients that are not a list or tuple of
        R_gh's length, or a scalar that `Field.sparse` refuses, which
        builds the product's sparse dict in the same pass.  A zero product
        is kept as {} until the end, so that a repeat of it is caught too.
        """
        dims, offsets, sparse = self.comp_dims, self.offsets, self.field.sparse
        order, gtab = self.group.order, self.group.table
        table = [{} for _ in range(self.dim)]
        zeros = False
        for row in _mapping_rows(structure) if isinstance(structure, Mapping) else structure:
            if type(row) is not list or len(row) != 5:
                raise InvalidInput(f"structure row must be [g, i, h, j, coeffs], got {row!r}")
            g, i, h, j, coeffs = row
            # compared by type(), not isinstance(): bool and float are refused;
            # an OR of ints is negative exactly when one of them is
            if not type(g) is type(i) is type(h) is type(j) is int or (g | i | h | j) < 0:
                raise InvalidInput(
                    f"structure index must be a non-negative integer, got {(g, i, h, j)!r}"
                )
            if g >= order or h >= order:
                raise InvalidInput(f"structure key {(g, i, h, j)!r} has a bad group index")
            if i >= dims[g] or j >= dims[h]:
                raise InvalidInput(f"structure key {(g, i, h, j)!r} has a bad basis index")
            products, b = table[offsets[g] + i], offsets[h] + j
            if b in products:
                raise InvalidInput(f"duplicate structure row for {(g, i, h, j)}")
            if not isinstance(coeffs, (list, tuple)):
                raise InvalidInput("coefficient vector must be a list")
            k = gtab[g][h]
            if len(coeffs) != dims[k]:
                raise InvalidInput(
                    f"product coefficients at {(g, i, h, j)!r} must have length {dims[k]}"
                )
            products[b] = prod = sparse(coeffs, offsets[k])
            if not prod:
                zeros = True
        if zeros:
            table = [{b: prod for b, prod in row.items() if prod} for row in table]
        return table

    # --- basis bookkeeping -------------------------------------------------

    def label(self, g: int, i: int) -> str:
        return self._labels.get((g, i), f"{self.group.names[g]}:{i}")

    def _span(self, g: int) -> range:
        """The flat indices of R_g's basis."""
        return range(self.offsets[g], self.offsets[g] + self.comp_dims[g])

    def _component(self, terms: Mapping, g: int) -> tuple:
        """The coefficients over R_g's basis of a sparse flat vector."""
        zero = self.field.zero
        return tuple(terms.get(k, zero) for k in self._span(g))

    def structure_items(self):
        """Nonzero structure entries as ((g, i, h, j), coeffs), sorted."""
        place, gtab = self._place, self.group.table
        return [
            (place[a] + place[b], self._component(prod, gtab[place[a][0]][place[b][0]]))
            for a, row in enumerate(self._table)
            for b, prod in sorted(row.items())
        ]

    def basis_of_flat(self, idx: int) -> tuple:
        if not 0 <= idx < self.dim:
            raise InvalidInput("flat index out of range")
        return self._place[idx]

    # --- elements ----------------------------------------------------------

    def element(self, comps: Mapping) -> "Element":
        """The element with coefficient vector comps[g] over each R_g given."""
        terms = {}
        for g, coeffs in comps.items():
            g = int(g)
            if not (0 <= g < self.group.order):
                raise InvalidInput(f"no component {g}")
            vec = self.field.vector(coeffs)
            if len(vec) != self.comp_dims[g]:
                raise InvalidInput(
                    f"component {self.group.names[g]} expects {self.comp_dims[g]} coefficients"
                )
            terms.update((k, c) for k, c in zip(self._span(g), vec) if c)
        return Element(self, terms)

    def basis_element(self, g: int, i: int) -> "Element":
        if not (0 <= g < self.group.order and 0 <= i < self.comp_dims[g]):
            raise InvalidInput(f"no basis element ({g}, {i})")
        return Element(self, {self.offsets[g] + i: self.field.one})

    def one(self) -> "Element":
        return Element(self, self._unit)

    def from_flat(self, vec: Sequence) -> "Element":
        if len(vec) != self.dim:
            raise InvalidInput("flat vector has wrong length")
        return Element(self, self.field.sparse(vec))

    def flatten(self, x: "Element") -> tuple:
        vec = [self.field.zero] * self.dim
        for k, c in x.terms.items():
            vec[k] = c
        return tuple(vec)

    # --- multiplication operators -------------------------------------------

    def _matrix(self, columns: Sequence, target: Sequence) -> Matrix:
        """The matrix with column j the sparse flat vector columns[j].

        Row r holds flat index target[r], and every entry of a column lies
        at a target index; the entries are canonical already.
        """
        row_of = {k: r for r, k in enumerate(target)}
        zero = self.field.zero
        out = [[zero] * len(columns) for _ in target]
        for j, col in enumerate(columns):
            for k, c in col.items():
                out[row_of[k]][j] = c
        return Matrix._trusted(self.field, tuple(map(tuple, out)), len(columns))

    def _ops(self, by, source, left_target, right_target) -> tuple:
        """(lefts, rights): for each flat multiplier b in by, the matrices of
        x -> b x and x -> x b on the span of the ascending flat indices
        source, with rows for the flat indices of left_target and
        right_target, read from the table."""
        table, empty = self._table, {}
        lefts = tuple(
            self._matrix([table[b].get(a, empty) for a in source], left_target) for b in by
        )
        rights = tuple(
            self._matrix([table[a].get(b, empty) for a in source], right_target) for b in by
        )
        return lefts, rights

    def left_matrix(self, x: "Element") -> Matrix:
        """Matrix of v -> x*v on the flattened algebra (column convention)."""
        x._check_same(self.one())
        one, every = self.field.one, range(self.dim)
        return self._matrix([_product(self, x.terms, {b: one}) for b in every], every)

    def right_matrix(self, x: "Element") -> Matrix:
        x._check_same(self.one())
        one, every = self.field.one, range(self.dim)
        return self._matrix([_product(self, {b: one}, x.terms) for b in every], every)

    def flat_left_ops(self) -> tuple:
        """Left multiplication by each flat basis element, as n x n matrices."""
        return self._flat_ops()[0]

    def flat_right_ops(self) -> tuple:
        return self._flat_ops()[1]

    def _flat_ops(self) -> tuple:
        if self._flat is None:
            every = range(self.dim)
            self._flat = self._ops(every, every, every, every)
        return self._flat

    def mult_ops(self, h: int, g: int) -> tuple:
        """Multiplication by the basis of R_h, restricted to R_g.

        Returns (left_ops, right_ops): for each basis element b_{h,k}, the
        d_{hg} x d_g matrix of x -> b_{h,k} * x : R_g -> R_{hg} and the
        d_{gh} x d_g matrix of x -> x * b_{h,k} : R_g -> R_{gh}, also for d_g = 0.
        """
        span, gtab = self._span, self.group.table
        return self._ops(span(h), span(g), span(gtab[h][g]), span(gtab[g][h]))

    def component_ops(self, g: int) -> tuple:
        """mult_ops(e, g): R_g as a bimodule over the identity component."""
        if g not in self._component_ops:
            self._component_ops[g] = self.mult_ops(self.group.identity, g)
        return self._component_ops[g]

    def identity_ops(self) -> tuple:
        """The flat operators of the R_e basis: R as an R_e-bimodule."""
        return self.subset_ops(range(self.group.order))

    def projection_ops(self) -> tuple:
        """The flat projection pi_g : R -> R_g of each nonzero component."""
        one, every = self.field.one, range(self.dim)
        return tuple(
            self._matrix([{k: one} if k in span else {} for k in every], every)
            for span in map(self._span, range(self.group.order))
            if span
        )

    def subset_ops(self, subset) -> tuple:
        """R_S, the sum of the components in S, as an R_e-bimodule.

        R_e R_S R_e lies in R_S, so the operators of R_e's basis on R_S's
        flat indices (ascending) have rows for those same indices.
        """
        members = sorted({int(g) for g in subset})
        if members and not (0 <= members[0] and members[-1] < self.group.order):
            raise InvalidInput(f"subset {tuple(subset)!r} has a bad group index")
        idx = [k for g in members for k in self._span(g)]
        return self._ops(self._span(self.group.identity), idx, idx, idx)

    # --- derived algebras ----------------------------------------------------

    def identity_component_algebra(self) -> "GradedAlgebra":
        """The identity component as an algebra over the trivial group."""
        e = self.group.identity
        span = self._span(e)
        structure = {
            (0, a - span.start, 0, b - span.start): self._component(prod, e)
            for a in span
            for b, prod in self._table[a].items()
            if b in span
        }
        labels = {(0, i): self.label(e, i) for i in range(len(span))}
        dims = (len(span),)
        return GradedAlgebra(
            self.field, trivial_group(), dims, structure, self.unit_coeffs, basis_labels=labels
        )

    def __repr__(self):
        dims = ", ".join(f"{self.group.names[g]}:{d}" for g, d in enumerate(self.comp_dims))
        return f"GradedAlgebra({self.field}, dim {self.dim} = {dims})"


def _mapping_rows(structure: Mapping):
    """The rows [g, i, h, j, coeffs] of a structure Mapping, in its order."""
    for key, coeffs in structure.items():
        try:
            g, i, h, j = key
        except (TypeError, ValueError):
            raise InvalidInput(f"structure key must be (g, i, h, j), got {key!r}") from None
        yield [g, i, h, j, coeffs]


def _reduced(field: Field, sums: dict) -> dict:
    """The nonzero entries of a dict of exact sums of canonical scalars, made canonical."""
    return {k: c for k, c in zip(sums, field.reduce(sums.values())) if c}


def _product(alg: GradedAlgebra, x: Mapping, y: Mapping) -> dict:
    """x y for sparse flat vectors x and y: sum of x_i y_j b_i b_j over the table, reduced once."""
    table = alg._table
    sums: dict = {}
    for i, xi in x.items():
        row = table[i]
        if not row:
            continue
        for j, yj in y.items():
            prod = row.get(j)
            if prod is not None:
                c = xi * yj
                for k, v in prod.items():
                    sums[k] = sums.get(k, 0) + c * v
    return _reduced(alg.field, sums)


class Element:
    """A sparse algebra element: {flat basis index: nonzero canonical coefficient}.

    The constructor wraps its terms unchecked; GradedAlgebra.element,
    from_flat and basis_element make elements from outside data.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: GradedAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    def _check_same(self, other: "Element"):
        if self.alg is not other.alg:
            raise InvalidInput("elements of different algebras")

    def coeffs(self, g: int) -> tuple:
        return self.alg._component(self.terms, g)

    def support(self) -> tuple:
        place = self.alg._place
        return tuple(sorted({place[k][0] for k in self.terms}))

    def flat(self) -> tuple:
        return self.alg.flatten(self)

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        sums = dict(self.terms)
        for k, c in other.terms.items():
            sums[k] = sums.get(k, 0) + c
        return Element(self.alg, _reduced(self.alg.field, sums))

    def __neg__(self) -> "Element":
        neg = self.alg.field.neg
        return Element(self.alg, {k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        f = self.alg.field
        c = f.coerce(c)
        return Element(self.alg, _reduced(f, {k: c * v for k, v in self.terms.items()}))

    def __rmul__(self, c) -> "Element":
        return self.scale(c)

    def __mul__(self, other) -> "Element":
        """sum of x_i y_j b_i b_j over the table, reduced once at the end."""
        if not isinstance(other, Element):
            return self.scale(other)
        self._check_same(other)
        return Element(self.alg, _product(self.alg, self.terms, other.terms))

    def __eq__(self, other):
        return isinstance(other, Element) and self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        alg = self.alg
        terms = ((self.terms[k], alg.label(*alg._place[k])) for k in sorted(self.terms))
        return " + ".join(lbl if c == alg.field.one else f"{c}*{lbl}" for c, lbl in terms) or "0"


@dataclass
class AlgebraDiagnostics:
    ok: bool
    problems: list
    witness: Optional[tuple] = None  # flat basis index triple for associativity failures
    nucleus_generators: Optional[tuple] = None  # flat indices of S when the left nucleus certifies

    def __bool__(self):
        return self.ok


def validate_algebra(alg: GradedAlgebra) -> AlgebraDiagnostics:
    """Unit laws, then associativity: by the left nucleus, else by the full scan.

    The left nucleus N = {x : (x, y, z) = 0 for all y, z} is a subalgebra
    (Teichmueller identity; Schafer, An Introduction to Nonassociative
    Algebras, ch. II), and the unit laws put 1 in it.  So when every member
    of a set S of basis elements associates with all basis pairs and the
    span of 1 closed under left multiplication by S is all of R, then N = R
    and R is associative: |S| n^2 triples instead of n^3.  When a member of
    S fails, the full scan runs and names the first failing triple in scan
    order.  Everything is read from the raw table dicts, with no Element:
    the unit laws compare 1 b and b 1 with b for each basis element b
    (`_product`), and each triple (a, b, c) is one exact sum (ab)c - a(bc),
    reduced once.
    """
    one, unit = alg.field.one, alg._unit
    for k in range(alg.dim):
        b = {k: one}
        if _product(alg, unit, b) != b or _product(alg, b, unit) != b:
            g, i = alg.basis_of_flat(k)
            return AlgebraDiagnostics(False, [f"unit law fails at basis element {alg.label(g, i)}"])
    gens = _left_nucleus_generators(alg)
    if gens is not None:
        return AlgebraDiagnostics(True, [], nucleus_generators=gens)
    return _associativity_scan(alg)


def _least_failing_c(alg: GradedAlgebra, a: int, b: int) -> Optional[int]:
    """The least flat index c with (b_a b_b) b_c != b_a (b_b b_c), or None.

    For each c the two sides go into one dict of exact sums, which is
    reduced once; only the c where b_a b_b or b_b b_c reaches a nonzero
    product are visited, since both sides vanish at the others.
    """
    table = alg._table
    row_a = table[a]
    sums: dict = {}
    for k, x in row_a.get(b, {}).items():
        for c, prod in table[k].items():
            acc = sums.setdefault(c, {})
            for t, v in prod.items():
                acc[t] = acc.get(t, 0) + x * v
    for c, bc in table[b].items():
        acc = sums.setdefault(c, {})
        for k, y in bc.items():
            prod = row_a.get(k)
            if prod is not None:
                for t, v in prod.items():
                    acc[t] = acc.get(t, 0) - y * v
    reduce = alg.field.reduce
    return min((c for c, acc in sums.items() if any(reduce(acc.values()))), default=None)


def _left_nucleus_generators(alg: GradedAlgebra) -> Optional[tuple]:
    """Flat indices S in the left nucleus whose left multiplications spin 1 onto R.

    S is chosen greedily: the lowest basis index outside the span found so
    far, whose triples (s, y, z) are checked before it joins S; the new
    member then acts on that span, and every vector it adds is multiplied
    by all of S.  Returns None at the first member that fails a triple.
    """
    one = alg.field.one
    span = EchelonBasis(alg.field, alg.dim)
    span._insert_sparse(dict(alg._unit))
    found = [alg._unit]
    gens: list = []
    k = 0
    while not span.is_full():
        while not span._reduce({k: one}):
            k += 1
        if any(_least_failing_c(alg, k, b) is not None for b in range(alg.dim)):
            return None
        gens.append(k)
        acting = tuple(gens)
        work = [(x, (k,)) for x in found]
        while work:
            x, by = work.pop()
            for s in by:
                y = _product(alg, {s: one}, x)
                if span._insert_sparse(dict(y)):
                    found.append(y)
                    work.append((y, acting))
    return tuple(gens)


def _associativity_scan(alg: GradedAlgebra) -> AlgebraDiagnostics:
    """Compare (ab)c with a(bc) on every basis triple; the first failure is the witness."""
    for a_i in range(alg.dim):
        for b_i in range(alg.dim):
            c_i = _least_failing_c(alg, a_i, b_i)
            if c_i is not None:
                ga, ia = alg.basis_of_flat(a_i)
                gb, ib = alg.basis_of_flat(b_i)
                gc, ic = alg.basis_of_flat(c_i)
                problem = (
                    "associativity fails at "
                    f"({alg.label(ga, ia)}, {alg.label(gb, ib)}, {alg.label(gc, ic)})"
                )
                return AlgebraDiagnostics(False, [problem], witness=(a_i, b_i, c_i))
    return AlgebraDiagnostics(True, [])


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

    def component(self, g: int) -> Subspace:
        got = self.comps.get(g)
        if got is not None:
            return got
        return Subspace.zero(self.alg.field, self.alg.comp_dims[g])

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.comps.values())

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

