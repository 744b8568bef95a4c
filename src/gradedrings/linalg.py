"""Exact linear algebra over the rationals and over prime fields GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals and
canonical ints in [0, p) over GF(p), so p must stay below 2**31 to keep the
widened products of native ints cheap.  Everything here is exact; there are no
floats and no rounding.  Matrices and subspaces are immutable after
construction, and a subspace is stored as its reduced row-echelon basis, so
equality of spans is structural equality.

Scalars are checked once, where they enter: `Matrix(...)`, `Matrix.apply`,
`EchelonBasis.add`/`reduce` and `Subspace.contains` (and, above this module,
`Element(...)` and the seeds of `spin`) pass each vector they are given
through `Field.vector`, one call per vector.  It refuses bool, float, str and
every other scalar that is not an int (or, over Q, a Fraction) with
InvalidInput, and returns canonical entries.  What a kernel computes from
canonical operands is canonical already, so it is wrapped as it is
(`Matrix._trusted`, `Element._trusted`), with no second pass.

`Field` owns the difference between GF(p) and Q.  Besides the scalar
operations it holds four row primitives, picked once when the field is made:
`dots` (the dot product of each row with a vector), `submul` (u - c*v),
`scale` (c*u) and `vector` (the entry check above).  Over GF(p) they reduce
each result entry mod p once; over Q they skip zero entries, so no Fraction
arithmetic is spent on zeros.  The algorithms are written once on top of
them.  `EchelonBasis` is the only elimination code, and `rref`, `solve` and
`nullspace` are built on it; its reduction sums plain exact products and
lets `vector` canonicalize the result.  `Matrix.mul`, `Matrix.apply` and
`Field.combine` (a linear combination of rows) are the one product path.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
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
        return [(a - c * b) % p for a, b in zip(u, v)]

    def scale(c, u):
        return [c * a % p for a in u]

    def vector(xs):
        xs = tuple(xs)
        if _INT.issuperset(map(type, xs)):
            return tuple([x % p for x in xs])
        return tuple([field.coerce(x) for x in xs])

    return dots, submul, scale, vector


def _rational_rows(field: "Field"):
    """The row primitives of Q: zero entries take no Fraction arithmetic."""
    zero = field.zero

    def dot(u, v):
        terms = [a * b for a, b in zip(u, v) if a and b]
        return sum(terms[1:], terms[0]) if terms else zero

    def dots(rows, v):
        return [dot(r, v) for r in rows]

    def submul(u, c, v):
        return [a - c * b if b else a for a, b in zip(u, v)]

    def scale(c, u):
        return [c * a if a else a for a in u]

    def vector(xs):
        xs = tuple(xs)
        if _FRACTION.issuperset(map(type, xs)):
            return xs
        return tuple([field.coerce(x) for x in xs])

    return dots, submul, scale, vector


class Field:
    """The rationals (p == 0) or the prime field GF(p).

    `dots(rows, v)`, `submul(u, c, v)`, `scale(c, u)` and `vector(xs)` are
    the row primitives described in the module docstring; `dots`, `submul`
    and `scale` return lists, `vector` a tuple.
    """

    __slots__ = ("p", "zero", "one", "dots", "submul", "scale", "vector")

    def __init__(self, p: int = 0):
        if p != 0 and (not _is_prime(p) or p >= 2**31):
            raise InvalidInput(f"field characteristic must be 0 or a prime < 2**31, got {p}")
        self.p = p
        if p:
            self.zero, self.one = 0, 1
            self.dots, self.submul, self.scale, self.vector = _prime_rows(self)
        else:
            self.zero, self.one = Fraction(0), Fraction(1)
            self.dots, self.submul, self.scale, self.vector = _rational_rows(self)

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

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

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
        return 1 / a

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
        self._check_same_field(other)
        if self.cols != other.rows:
            raise InvalidInput(f"shape mismatch for product: {self.shape} x {other.shape}")
        dots = self.field.dots
        bt = tuple(zip(*other.entries)) if other.entries else ((),) * other.cols
        out = tuple(tuple(dots(bt, row)) for row in self.entries)
        return Matrix._trusted(self.field, out, other.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise InvalidInput("shape mismatch for difference")
        f = self.field
        submul, one = f.submul, f.one
        out = tuple(tuple(submul(r1, one, r2)) for r1, r2 in zip(self.entries, other.entries))
        return Matrix._trusted(f, out, self.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix._trusted(f, tuple(tuple(f.scale(c, r)) for r in self.entries), self.cols)

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
        return tuple(x for r in self.entries for x in r)

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
    """The RREF of m's rows, accumulated in an EchelonBasis."""
    eb = EchelonBasis(m.field, m.cols)
    for row in m.entries:
        if eb.is_full():
            break
        eb.add(row)
    return eb


def rref(m: Matrix) -> tuple:
    """Reduced row-echelon form.  Returns (Matrix, rank)."""
    eb = _echelon(m)
    zero_rows = ((m.field.zero,) * m.cols,) * (m.rows - eb.rank)
    return Matrix._trusted(m.field, tuple(map(tuple, eb.rows)) + zero_rows, m.cols), eb.rank


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
    n = a.cols
    if eb.pivots and eb.pivots[-1] >= n:
        return None  # pivot in an rhs column: inconsistent
    sol = [(a.field.zero,) * b.cols] * n
    for row, c in zip(eb.rows, eb.pivots):
        sol[c] = tuple(row[n:])
    return Matrix._trusted(a.field, tuple(sol), b.cols)


def solve_vector(a: Matrix, vec: Sequence) -> Optional[tuple]:
    s = solve(a, vec)
    return None if s is None else s.column(0)


def _residue(field: Field, rows, pivots, v):
    """v minus its projection onto RREF rows with unit pivots at `pivots`.

    The rows are reduced at one another's pivots, so each row's coefficient
    is v's own entry at its pivot, canonical and unchanged by the other
    rows.  The products are summed in plain exact arithmetic, skipping the
    rows' zeros, and canonicalized once at the end.
    """
    out = None
    n = len(v)
    for row, c in zip(rows, pivots):
        x = v[c]
        if x:
            if out is None:
                out = list(v)
            for k in range(c, n):
                b = row[k]
                if b:
                    out[k] -= x * b
    return v if out is None else field.vector(out)


class Subspace:
    """A subspace of F^n held as its canonical RREF basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, *, _canonical: bool = False):
        if basis.cols != ambient_dim:
            raise InvalidInput("basis width differs from ambient dimension")
        if basis.field != field:
            raise InvalidInput("basis field differs from subspace field")
        if not _canonical:
            red, rank = rref(basis)
            basis = Matrix._trusted(field, red.entries[:rank], ambient_dim)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise InvalidInput("vector length differs from ambient dimension")
        return cls(field, ambient_dim, Matrix(field, vecs, cols=ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix._trusted(field, (), ambient_dim), _canonical=True)

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim), _canonical=True)

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
        rows = self.basis.entries
        # a canonical row's pivot is a 1 with only zeros before it
        one = self.field.one
        pivots = [row.index(one) for row in rows]
        return not any(_residue(self.field, rows, pivots, self.field.vector(vec)))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(r) for r in other.basis.entries)

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
    """Right nullspace {v : a @ v = 0} as a canonical Subspace."""
    eb = _echelon(a)
    n = a.cols
    field = a.field
    piv_set = set(eb.pivots)
    one, zero, neg = field.one, field.zero, field.neg
    vecs = []
    for fc in range(n):
        if fc in piv_set:
            continue
        v = [zero] * n
        v[fc] = one
        for row, c in zip(eb.rows, eb.pivots):
            v[c] = neg(row[fc])
        vecs.append(tuple(v))
    return Subspace(field, n, Matrix._trusted(field, tuple(vecs), n))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u._check_compatible(v)
    return Subspace(u.field, u.ambient_dim, u.basis.stack(v.basis))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the nullspaces of the stacked constraint systems.

    A subspace equals the solution set of the constraints given by the
    nullspace of its basis, so intersecting means stacking both constraint
    sets and solving again.
    """
    u._check_compatible(v)
    cu = annihilator(u).basis
    cv = annihilator(v).basis
    return nullspace(cu.stack(cv))


def annihilator(u: Subspace) -> Subspace:
    """{w : b . w = 0 for every basis row b}.  dim = ambient - dim(u)."""
    if u.dim == 0:
        return Subspace.full(u.field, u.ambient_dim)
    return nullspace(u.basis)


class EchelonBasis:
    """Incremental RREF accumulator: the one elimination kernel.

    Rows keep unit pivots in strictly increasing pivot columns and are fully
    reduced at one another's pivots, so membership is a single forward pass.
    """

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows: list = []
        self.pivots: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def reduce(self, vec: Sequence):
        """The residue of vec after clearing every pivot column."""
        return _residue(self.field, self.rows, self.pivots, self.field.vector(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert vec's residue if independent.  Returns True if rank grew."""
        field = self.field
        v = _residue(field, self.rows, self.pivots, field.vector(vec))
        lead = next(filter(None, v), None)
        if lead is None:
            return False
        c = v.index(lead)
        if lead != 1:
            v = field.scale(field.inv(lead), v)
        submul = field.submul
        rows = self.rows
        for i, row in enumerate(rows):
            x = row[c]
            if x:
                rows[i] = submul(row, x, v)
        pos = bisect.bisect_left(self.pivots, c)
        self.pivots.insert(pos, c)
        rows.insert(pos, v)
        return True

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def to_subspace(self) -> Subspace:
        m = Matrix._trusted(self.field, tuple(map(tuple, self.rows)), self.ambient)
        return Subspace(self.field, self.ambient, m, _canonical=True)


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

    def combos(length):
        if length == 0:
            yield ()
            return
        for rest in combos(length - 1):
            for c in range(p):
                yield rest + (c,)

    for lead in range(k):
        for tail in combos(k - lead - 1):
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
