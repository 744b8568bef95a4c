"""Exact linear algebra over the rationals and over prime fields GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals and
canonical ints in [0, p) over GF(p), so p must stay below 2**31 to keep the
widened products of native ints cheap.  Everything here is exact; there are no
floats and no rounding.  Matrices and subspaces are immutable after
construction, and a subspace is stored as its reduced row-echelon basis, so
equality of spans is structural equality.

Scalars are checked once, where they enter, and every sum computed from
canonical operands is canonicalized once, with no second check.  Dense
vectors are checked by `Field.vector`: `Matrix(...)` and `Matrix.apply`
(and, above this module, the unit of the `GradedAlgebra` constructor,
`GradedAlgebra.element` and the seeds of `spin`) pass each vector they are
given through it, one call per vector.  Vectors kept sparse are checked by
`Field.sparse`, which returns the nonzero canonical entries as a dict:
`EchelonBasis.add`/`contains` and `Subspace.contains`, which tests its
vector in the `EchelonBasis` of its rows (and, above this module, the
structure rows of the `GradedAlgebra` constructor, which the loader and
the builders share, and `GradedAlgebra.from_flat`).  The checked entry
points of this module also refuse a vector of the wrong length.
`EchelonBasis._insert` (on dense rows) and `_insert_sparse` (on dicts) skip
both checks, for callers whose rows are canonical already: `rref`, `solve`
and `nullspace` on a Matrix's rows, `minimal_polynomial` on its matrix's
powers, the oracle's sweep, `bimodule.spin` on the images of its canonical
vectors and `bimodule.envelope` on its sparse products.  Both checks refuse
bool, float, str and every other scalar that is not an int (or, over Q,
a Fraction) with InvalidInput, with the same message, and return
canonical entries.  What a kernel computes from canonical operands is
canonical already, so it is wrapped as it is (`Matrix._trusted`, the
`Element` constructor).  Where it sums products of canonical scalars,
`Field.reduce` canonicalizes the sums once, with no type scan: the rows
of `Matrix.mul` and `Matrix.sub` and, above this module, the products and
per-c sums of `algebra` (`_reduced`, `_least_failing_c`), and in
`bimodule` the products L_i R_j of `envelope`, the rows of `hom_space`
and the sampled envelope elements of `is_simple`.

`Field` owns the difference between GF(p) and Q.  Besides the scalar
operations it holds six row primitives, picked once when the field is
made: `dots` (the dot product of each row with a vector), `submul` (u -=
c*v on rows held as dicts of their nonzero entries), `scale` (c*u), the
two checked entries `vector` (dense) and `sparse` (a dict of the nonzero
entries, built in the comprehension that reduces them), and the unchecked
`reduce`.  Over GF(p) they reduce each result entry mod p once; over Q
they skip zero entries, so no Fraction arithmetic is spent on zeros, and
`reduce` returns the sums as they are, since an exact sum of Fractions is
canonical (its callers drop the zeros of sparse sums).  The algorithms are
written once on top of them.  `EchelonBasis` is the one elimination
kernel, and `rref`, `solve`, `nullspace` and `Subspace.contains` are built
on it: it holds its rows as dicts of their nonzero entries, so a row of a
product L_i R_j in `bimodule.envelope`, m^2 wide with few nonzeros, costs
only its nonzeros, and it keeps them in Gauss-Jordan form, so a new row
meets no pivot column that an earlier reduction filled in.  `Matrix.mul`
and `Field.dots` (behind `Matrix.apply`, `Field.combine`, a linear
combination of rows, and the images in `spin`) are the one product path.
`Matrix.mul` follows the same rule for both fields: it reads the right
factor's rows once as (column, value) pairs of their nonzero entries, adds
each nonzero entry (i, k) of the left factor times row k into row i of the
result, and canonicalizes each result row once with `reduce` (Gustavson's
row-by-row sparse product), so operators that are mostly zeros, such as
the multiplication operators of a basis, cost only their nonzero products.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InvalidInput


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_INT = frozenset((int,))
_FRACTION = frozenset((Fraction,))


def _prime_rows(field: "Field"):
    """The row primitives of GF(p): every result entry reduced mod p once."""
    p = field.p

    def dots(rows, v):
        return [sum(map(mul, r, v)) % p for r in rows]

    def submul(u, c, v):
        for k, b in v.items():
            y = (u.get(k, 0) - c * b) % p
            if y:
                u[k] = y
            else:
                del u[k]

    def scale(c, u):
        return [c * a % p for a in u]

    def vector(xs):
        xs = tuple(xs)
        if _INT.issuperset(map(type, xs)):
            return tuple([x % p for x in xs])
        return tuple([field.coerce(x) for x in xs])

    def sparse(xs, off=0):
        if _INT.issuperset(map(type, xs)):
            return {off + r: x for r, c in enumerate(xs) if (x := c % p)}
        return {off + r: x for r, x in enumerate(vector(xs)) if x}

    def reduce(sums):
        return [x % p for x in sums]

    return dots, submul, scale, vector, sparse, reduce


def _rational_rows(field: "Field"):
    """The row primitives of Q: zero entries take no Fraction arithmetic."""
    zero = field.zero

    def dot(u, v):
        terms = [a * b for a, b in zip(u, v) if a and b]
        return sum(terms[1:], terms[0]) if terms else zero

    def dots(rows, v):
        return [dot(r, v) for r in rows]

    def submul(u, c, v):
        for k, b in v.items():
            y = u.get(k, 0) - c * b
            if y:
                u[k] = y
            else:
                del u[k]

    def scale(c, u):
        return [c * a if a else a for a in u]

    def vector(xs):
        xs = tuple(xs)
        if _FRACTION.issuperset(map(type, xs)):
            return xs
        return tuple([field.coerce(x) for x in xs])

    def sparse(xs, off=0):
        if _FRACTION.issuperset(map(type, xs)):
            return {off + r: x for r, x in enumerate(xs) if x}
        return {off + r: x for r, x in enumerate(vector(xs)) if x}

    def reduce(sums):
        return sums

    return dots, submul, scale, vector, sparse, reduce


class Field:
    """The rationals (p == 0) or the prime field GF(p).

    `dots(rows, v)`, `submul(u, c, v)`, `scale(c, u)`, `vector(xs)`,
    `sparse(xs, off=0)` and `reduce(sums)` are the row primitives described
    in the module docstring.  `dots` and `scale` return lists, and `submul`
    changes the dict u in place, dropping the entries that become 0.
    `vector` checks the scalars of an iterable and returns them canonical
    as a tuple.  `sparse` checks those of a sequence and returns
    {off + r: x} for its nonzero canonical entries x, refusing what
    `vector` refuses with the same message.  `reduce` takes exact sums of
    products of canonical scalars, unchecked, and returns them canonical in
    the same order: a list over GF(p), the sums as given over Q.
    """

    __slots__ = ("p", "zero", "one", "dots", "submul", "scale", "vector", "sparse", "reduce")

    def __init__(self, p: int = 0):
        if p != 0 and (p >= 2**31 or not _is_prime(p)):
            raise InvalidInput(f"field characteristic must be 0 or a prime < 2**31, got {p}")
        self.p = p
        if p:
            self.zero, self.one = 0, 1
            self.dots, self.submul, self.scale, self.vector, self.sparse, self.reduce = (
                _prime_rows(self)
            )
        else:
            self.zero, self.one = Fraction(0), Fraction(1)
            self.dots, self.submul, self.scale, self.vector, self.sparse, self.reduce = (
                _rational_rows(self)
            )

    def coerce(self, x):
        """Canonical scalar for this field, or InvalidInput."""
        if self.p:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InvalidInput(f"GF({self.p}) scalar must be an int, got {x!r}")
            return x % self.p
        if isinstance(x, bool):
            raise InvalidInput("rational scalar must be an int or Fraction")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise InvalidInput(f"rational scalar must be an int or Fraction, got {x!r}")

    def combine(self, coeffs: Sequence, rows: Sequence[Sequence]) -> list:
        """sum_k coeffs[k] * rows[k] for canonical operands; rows must be nonempty."""
        return self.dots(zip(*rows), coeffs)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.one / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def random_scalar(self, rng):
        """A uniform element of GF(p), or a small fraction n/d over Q."""
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


RATIONALS = Field(0)


def GF(p: int) -> Field:
    if p == 0:
        raise InvalidInput("GF(p) needs a prime p; use RATIONALS for characteristic 0")
    return Field(p)


class Matrix:
    """Immutable dense matrix over a Field.  Entries: tuple of row tuples."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence], cols: Optional[int] = None):
        rows = tuple(map(field.vector, entries))
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InvalidInput("ragged matrix rows")
            if cols is not None and cols != width:
                raise InvalidInput("explicit column count disagrees with rows")
        else:
            width = 0 if cols is None else cols
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    @classmethod
    def _trusted(cls, field: Field, entries: tuple, cols: int) -> "Matrix":
        """Wrap a tuple of canonical row tuples of width cols, unchecked."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(entries)
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def _unflatten(cls, field: Field, flat: tuple, cols: int) -> "Matrix":
        """Wrap canonical row-major entries as rows of width cols > 0, unchecked."""
        rows = tuple(flat[i : i + cols] for i in range(0, len(flat), cols))
        return cls._trusted(field, rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._trusted(
            field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "Matrix":
        m = cls(field, columns)
        return m.transpose()

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise InvalidInput(f"mixed fields: {self.field} vs {other.field}")

    def mul(self, other: "Matrix") -> "Matrix":
        """self @ other, by the row-by-row sparse product of the module docstring."""
        self._check_same_field(other)
        if self.cols != other.rows:
            raise InvalidInput(f"shape mismatch for product: {self.shape} x {other.shape}")
        field = self.field
        zero, reduce, cols = field.zero, field.reduce, other.cols
        sparse = other._sparse_rows()
        out = []
        for row in self.entries:
            acc = [zero] * cols
            for c, pairs in zip(row, sparse):
                if c:
                    for j, x in pairs:
                        acc[j] += c * x
            out.append(tuple(reduce(acc)))
        return Matrix._trusted(field, tuple(out), cols)

    def _sparse_rows(self) -> list:
        """Each row as a list of (column, value) pairs of its nonzero entries."""
        return [[(j, x) for j, x in enumerate(row) if x] for row in self.entries]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise InvalidInput("shape mismatch for difference")
        reduce = self.field.reduce
        out = tuple(
            tuple(reduce([a - b if b else a for a, b in zip(r1, r2)]))
            for r1, r2 in zip(self.entries, other.entries)
        )
        return Matrix._trusted(self.field, out, self.cols)

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix._trusted(self.field, ((),) * self.cols, 0)
        return Matrix._trusted(self.field, tuple(zip(*self.entries)), self.rows)

    def stack(self, other: "Matrix") -> "Matrix":
        """Rows of self on top of rows of other."""
        self._check_same_field(other)
        if self.cols != other.cols:
            raise InvalidInput("column mismatch for stack")
        return Matrix._trusted(self.field, self.entries + other.entries, self.cols)

    def augment(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.rows != other.rows:
            raise InvalidInput("row mismatch for augment")
        return Matrix._trusted(
            self.field,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
            self.cols + other.cols,
        )

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise InvalidInput("vector length mismatch")
        return tuple(self.field.dots(self.entries, self.field.vector(vec)))

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.field.one
        return all(
            (x == one if i == j else not x) for i, r in enumerate(self.entries) for j, x in enumerate(r)
        )

    def flatten(self) -> tuple:
        """Row-major flattening."""
        return tuple(chain.from_iterable(self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


def _echelon(m: Matrix) -> "EchelonBasis":
    """The RREF of m's rows, accumulated in an EchelonBasis.

    A Matrix's entries are canonical by construction, so its rows go in
    unchecked."""
    eb = EchelonBasis(m.field, m.cols)
    for row in m.entries:
        if eb.is_full():
            break
        eb._insert(row)
    return eb


def rref(m: Matrix) -> tuple:
    """Reduced row-echelon form.  Returns (Matrix, rank)."""
    eb = _echelon(m)
    zero_rows = ((m.field.zero,) * m.cols,) * (m.rows - eb.rank)
    return Matrix._trusted(m.field, tuple(eb.rows) + zero_rows, m.cols), eb.rank


def solve(a: Matrix, b) -> Optional[Matrix]:
    """A particular solution x of a @ x = b (b a column matrix or a vector).

    Free variables are set to zero.  Returns None when inconsistent.
    """
    if not isinstance(b, Matrix):
        b = Matrix(a.field, [[x] for x in b], cols=1)
    a._check_same_field(b)
    if b.rows != a.rows:
        raise InvalidInput("right-hand side has wrong height")
    eb = _echelon(a.augment(b))
    n, zero = a.cols, a.field.zero
    if any(c >= n for c in eb._rows):
        return None  # pivot in an rhs column: inconsistent
    sol = [(zero,) * b.cols] * n
    for c, row in eb._rows.items():
        sol[c] = tuple(row.get(k, zero) for k in range(n, n + b.cols))
    return Matrix._trusted(a.field, tuple(sol), b.cols)


def solve_vector(a: Matrix, vec: Sequence) -> Optional[tuple]:
    s = solve(a, vec)
    return None if s is None else s.column(0)


class Subspace:
    """A subspace of F^n held as its canonical RREF basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise InvalidInput("basis width differs from ambient dimension")
        if basis.field != field:
            raise InvalidInput("basis field differs from subspace field")
        red, rank = rref(basis)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = Matrix._trusted(field, red.entries[:rank], ambient_dim)

    @classmethod
    def _trusted(cls, field: Field, ambient_dim: int, basis: Matrix) -> "Subspace":
        """Wrap basis, an RREF of width ambient_dim with no zero rows, unchecked."""
        s = object.__new__(cls)
        s.field = field
        s.ambient_dim = ambient_dim
        s.basis = basis
        return s

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise InvalidInput("vector length differs from ambient dimension")
        return cls(field, ambient_dim, Matrix(field, vecs, cols=ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls._trusted(field, ambient_dim, Matrix._trusted(field, (), ambient_dim))

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls._trusted(field, ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient_dim:
            raise InvalidInput("vector length differs from ambient dimension")
        return _echelon(self.basis).contains(vec)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise InvalidInput("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.entries == other.basis.entries
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis.entries))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


def nullspace(a: Matrix) -> Subspace:
    """Right nullspace {v : a @ v = 0} as a canonical Subspace.

    Spanned by one vector per free column fc: -1 at fc and, at each pivot
    c, the entry at fc of c's row, read from the sparse rows in one pass."""
    eb = _echelon(a)
    n, field = a.cols, a.field
    if eb.is_full():
        return Subspace.zero(field, n)
    vecs = {fc: [field.zero] * n for fc in range(n) if fc not in eb._rows}
    minus_one = field.neg(field.one)
    for fc, v in vecs.items():
        v[fc] = minus_one
    for c, row in eb._rows.items():
        for k, x in row.items():
            if k != c:
                vecs[k][c] = x
    return Subspace(field, n, Matrix._trusted(field, tuple(map(tuple, vecs.values())), n))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u._check_compatible(v)
    return Subspace(u.field, u.ambient_dim, u.basis.stack(v.basis))


def annihilator(u: Subspace) -> Subspace:
    """{w : b . w = 0 for every basis row b}.  dim = ambient - dim(u)."""
    if u.dim == 0:
        return Subspace.full(u.field, u.ambient_dim)
    return nullspace(u.basis)


class EchelonBasis:
    """Incremental RREF accumulator: the one elimination kernel.

    `_rows` maps each pivot column to its row, a dict of the row's nonzero
    canonical entries with a 1 at the pivot and a 0 at every other row's
    pivot (Gauss-Jordan form), so a new row is reduced in one pass that
    reads each pivot's coefficient from the row as given.  `_support`
    holds every column where some row may be nonzero: a new pivot outside
    it needs no earlier row reduced at it, which spares a scan of every row
    when the rows' nonzeros are disjoint, as for the products of M_n's
    regular action.  `rows` is a dense view in pivot order.
    """

    __slots__ = ("field", "ambient", "_rows", "_support")

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self._rows: dict = {}
        self._support: set = set()

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list:
        """The rows as tuples, in pivot order."""
        return [self._dense(self._rows[c]) for c in sorted(self._rows)]

    def is_full(self) -> bool:
        return len(self._rows) == self.ambient

    def _dense(self, v: dict) -> tuple:
        out = [self.field.zero] * self.ambient
        for k, x in v.items():
            out[k] = x
        return tuple(out)

    def _checked(self, vec: Sequence) -> dict:
        """vec's nonzero entries, once its length and scalars are checked."""
        if len(vec) != self.ambient:
            raise InvalidInput("vector length differs from ambient dimension")
        return self.field.sparse(vec)

    def _reduce(self, v: dict) -> dict:
        """v with every pivot column cleared, in place."""
        rows, submul = self._rows, self.field.submul
        for c in [c for c in v if c in rows]:
            submul(v, v[c], rows[c])
        return v

    def contains(self, vec: Sequence) -> bool:
        return not self._reduce(self._checked(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert vec's residue if independent.  Returns True if rank grew."""
        return self._insert_sparse(self._checked(vec))

    def _insert(self, vec: Sequence) -> bool:
        """`add` on a vector whose entries are canonical already, unchecked."""
        return self._insert_sparse({k: x for k, x in enumerate(vec) if x})

    def _insert_sparse(self, v: dict) -> bool:
        """`_insert` on a dict of nonzero canonical entries, which it takes over."""
        v = self._reduce(v)
        if not v:
            return False
        field, c = self.field, min(v)
        if v[c] != 1:
            v = dict(zip(v, field.scale(field.inv(v[c]), v.values())))
        if c in self._support:
            submul = field.submul
            for row in self._rows.values():
                x = row.get(c)
                if x is not None:
                    submul(row, x, v)
        self._support.update(v)
        self._rows[c] = v
        return True

    def to_subspace(self) -> Subspace:
        m = Matrix._trusted(self.field, tuple(self.rows), self.ambient)
        return Subspace._trusted(self.field, self.ambient, m)


def projective_count(p: int, dim: int) -> int:
    """Number of nonzero vectors of GF(p)^dim up to scaling."""
    return (p**dim - 1) // (p - 1)


def projective_vectors(field: Field, basis_rows: Sequence[Sequence]):
    """All nonzero vectors of the span, one per scaling class.

    Yields each vector whose leading coefficient (in the given basis) is 1,
    in a fixed deterministic order.  GF(p) only.
    """
    p = field.p
    if not p:
        raise InvalidInput("projective enumeration needs a finite field")
    k = len(basis_rows)
    if k == 0:
        return
    n = len(basis_rows[0])
    for lead in range(k):
        for tail in product(range(p), repeat=k - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            vec = [0] * n
            for co, row in zip(coeffs, basis_rows):
                if co:
                    for j, x in enumerate(row):
                        if x:
                            vec[j] = (vec[j] + co * x) % p
            yield tuple(vec)


def span_candidates(field: Field, rows: Sequence[Sequence], rng, samples: int, budget: int):
    """The vectors of span(rows) that a search tries: (candidates, complete).

    This is the one rule for sweeping a span or sampling it.  When the span
    has at most `budget` projective points, the candidates are one vector
    per point and complete is True, so a search that finds nothing among
    them proves there is nothing to find: over GF(p) they are the
    `projective_vectors`, over Q (where only a span of dimension at most 1
    has finitely many points) the rows.  Otherwise the candidates are the
    rows followed by up to `samples` nonzero combinations, with coefficients
    drawn by `Field.random_scalar`, and complete is False.  Candidates are
    generated lazily: rng is drawn from only as they are consumed.
    """
    k = len(rows)
    points = projective_count(field.p, k) if field.p else (k if k <= 1 else math.inf)
    if points <= budget:
        return (projective_vectors(field, rows) if field.p else iter(rows)), True
    return _sampled_span(field, rows, rng, samples), False


def _sampled_span(field: Field, rows, rng, samples: int):
    yield from rows
    for _ in range(samples):
        vec = field.combine([field.random_scalar(rng) for _ in rows], rows)
        if any(vec):
            yield tuple(vec)
