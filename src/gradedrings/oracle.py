"""Brute-force ground truth over finite prime fields.

The routines here decide the same questions as the analysis module, but by
exhaustive enumeration straight from the definitions: list sub-bimodules,
ideals, and subrings, and compare the sub-bimodule lattice against the
subsets of the grading group.  No theorem is consulted, which is the point;
the test suite's load-bearing property is that the two routes agree
wherever both can answer.

Everything refuses the rationals.  Budgets are counted in enumerated
objects (candidate seed vectors, subspaces, lattice members) so runtime
stays predictable; crossing a budget raises BudgetError rather than
degrading to sampling.

Every invariant subspace is found by closing each seed vector v, one per
projective ray, under the algebra E spanned by the operator products L R,
so closure(v) = E v.  The left and right families each span the image of a
unital algebra and commute with one another, so the products L R already
span a multiplication-closed space containing the identity, and the one
echelon pass of bimodule.envelope over them is a basis of E.  One sweep
(_seed_sweep) does this over every field, on one row format per field: an
int bitmask over GF(2), a bitsliced pair of int masks over GF(3), tuples
on an EchelonBasis for larger p.  It reuses each seed's closure under one
memo rule: for each basis matrix M of E in turn, let u = M v, scaled to a
leading 1.  A zero u is skipped.  If u was swept earlier,
W = closure(u) = E M v lies in E v because E is closed under products (on
data that fails validation it need not be, and the oracle's answer means
nothing there); so if v is in W then closure(v) = W and the seed is done,
and otherwise W's rows join the span.  An unswept u joins the span alone.
The span stops growing at full rank.  An orbit rule then spares most seeds
the images.  Let G in E be invertible.  Its minimal polynomial has a nonzero
constant term, so G^-1 is a polynomial in G and lies in E, which holds I
and is closed under products; so E G v lies in E v, and E v = E G^-1 G v
lies in E G v: closure(G v) = closure(v).  G permutes the rays, so after
closing a seed that the memo did not hold, the sweep walks the seed's
G-orbit and writes its closure id on each ray, up to one that holds it
already.  G is sought once, after 4n seeds are closed, and only in a sweep
of at least 4 n dim E seeds, where four failed tries cost little: the first
of four combinations of E's basis, with coefficients from a fixed-seed
generator, whose rows are independent.  Both rules use only the definition
of the closure (and Cayley-Hamilton), so the oracle stays brute force: it
yields every seed, in order, and consults no theorem about graded rings; on
invalid data neither has ground.  No output depends on G, since closures are
canonical rows.  The memo is an array of closure ids indexed by the base-p
code of a vector with a leading 1, 4 bytes for each of the p^n codes,
allocated only after the p^n seed vectors have passed the budget and
MEMO_CAP.  The packed formats add a table of 2^n codes and, for G and each
basis matrix of E that the sweep reaches, tables of p^(n - n//2) + p^(n//2)
rows.

Where every operator is a scalar matrix c I, every subspace is invariant,
which is the definition of invariance and needs no theorem; this is read
from the operators before any sweep (_scalar_action).  The lattice is then
every subspace of F^n: enumerate_subspaces lists each one once, from its
pivot pattern, as a product of per-row choices, and sub_bimodule_dims,
which the command line reports, counts them by the Gaussian binomials and
builds none.  The refusals are those of a sweep: the seed budget and
MEMO_CAP, LATTICE_CAP where the sweep would have found more distinct
closures (the (p^n - 1)/(p - 1) lines), then the subspace budget.

Subrings are enumerated on the quotient R/R_e.  A unital subring holding
R_e is an R_e-sub-bimodule holding R_e, and by the correspondence theorem
for modules those are exactly the lifts R_e + W of the sub-bimodules W of
R/R_e; each lift is then tested for closure under multiplication.  The
correspondence theorem is about modules alone, not graded rings, so this
route stays brute force too.  LATTICE_CAP bounds the quotient's lattice.
"""
from __future__ import annotations

import itertools
import random
from array import array
from functools import partial
from operator import mul, xor
from typing import List, Tuple

from .algebra import GradedAlgebra, graded_subspace_from_flat
from .bimodule import BimoduleAction, envelope, hom_space
from .errors import BudgetError, InvalidInput
from .linalg import (
    EchelonBasis,
    Field,
    Matrix,
    Subspace,
    nullspace,
    projective_vectors,
    subspace_sum,
)

DEFAULT_BUDGET = 10 ** 6

# Cap on the sweep's memo, whatever the budget: 4 bytes for each of the p^n
# codes, so 64 MiB at the cap.  The sweep closes 7*10^4 to 6*10^5 seeds a
# second (m3(GF(3))'s sub-bimodules to galois(2,4)'s ideals, in-process,
# Python 3.11 on a shared 2-core machine), so a sweep at the cap takes half
# a minute to four minutes, and each step past it doubles both at least.
MEMO_CAP = 2 ** 24

# Hard cap on the invariant-subspace lattice, independent of the seed-vector
# budget.  It bounds memory: the join checks it after each generator, and one
# generator at most doubles the lattice, so no more than about twice the cap
# is held before BudgetError.
LATTICE_CAP = 4096


def _require_prime(alg_or_field) -> Field:
    f = alg_or_field if isinstance(alg_or_field, Field) else alg_or_field.field
    if f.p == 0:
        raise InvalidInput("the oracle only runs over finite prime fields")
    return f


def _require_seed_budget(alg: GradedAlgebra, budget: int) -> None:
    """Refuse an instance whose p^n seed vectors exceed the budget, or
    MEMO_CAP.

    Every entry point calls this before it builds an operator: the flat
    operators alone take time and memory cubic in the dimension.  The cap
    also keeps a vector's code, 0 to p^n - 1, within an `array("I")` entry
    of 32 bits.
    """
    f, n = _require_prime(alg), alg.dim
    if f.p ** n > budget:
        raise BudgetError(
            f"{f.p}^{n} seed vectors exceed budget {budget} for dimension {n}"
        )
    if f.p ** n > MEMO_CAP:
        raise BudgetError(f"{f.p}^{n} seed vectors exceed the memo cap of {MEMO_CAP} codes")


# --------------------------------------------------------------------------
# subspace enumeration by pivot pattern
# --------------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def count_subspaces(p: int, n: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def _require_subspace_budget(f: Field, dim: int, budget: int) -> None:
    total = count_subspaces(f.p, dim)
    if total > budget:
        raise BudgetError(f"{total} subspaces of GF({f.p})^{dim} exceed budget {budget}")


def enumerate_subspaces(dim: int, f: Field, budget: int = DEFAULT_BUDGET) -> List[Subspace]:
    """Every subspace of f^dim exactly once, in canonical RREF form.

    Generation walks rank by rank over pivot-column patterns, which
    produces each reduced row echelon form directly instead of
    deduplicating spans.  A pattern's RREF bases are the products of its
    rows' choices: row r is 1 at its pivot and takes every value at each
    later column that is not a pivot, so each row tuple is built once and
    shared by every basis that holds it.  Sorting the bases of one rank as
    plain tuples gives the order of `_subspace_key`.
    """
    _require_subspace_budget(_require_prime(f), dim, budget)
    elems = range(f.p)
    out = []
    for k in range(dim + 1):
        bases = []
        for pivots in itertools.combinations(range(dim), k):
            choices = []
            for r, pc in enumerate(pivots):
                free = [c for c in range(pc + 1, dim) if c not in pivots[r + 1 :]]
                row = [0] * dim
                row[pc] = 1
                fills = []
                for values in itertools.product(elems, repeat=len(free)):
                    for c, x in zip(free, values):
                        row[c] = x
                    fills.append(tuple(row))
                choices.append(fills)
            bases.extend(itertools.product(*choices))
        bases.sort()
        out.extend(Subspace._trusted(f, dim, Matrix._trusted(f, b, dim)) for b in bases)
    return out


def _subspace_key(s: Subspace):
    return (s.dim, s.basis.entries)


# --------------------------------------------------------------------------
# closure machinery
# --------------------------------------------------------------------------


def _mask(v) -> int:
    """The int with bit i set where v's coordinate i is nonzero."""
    return sum(1 << i for i, x in enumerate(v) if x)


class _TupleRows:
    """Rows as tuples of residues, on an EchelonBasis: the rows of p >= 5.

    Each row format gives _seed_sweep the same operations: seeds() yields
    the seeds in the order of projective_vectors, images(seed, code) each
    nonzero M seed for M a basis matrix of E, scaled to a leading 1, both
    with their codes (the base-p number of the vector, coordinate 0 the most
    significant); insert grows a basis, and contains, full and canonical
    read one.  support gives a row's nonzero coordinates as bits, pack a
    tuple's row and unpack its coordinates.  unit() applies G of the orbit
    rule: a function from a monic row's code and row to G row, monic, with
    its code, or None where no G is found.  rank is dim E, which the orbit
    rule's size gate reads.
    """

    insert, contains = staticmethod(EchelonBasis._insert), staticmethod(EchelonBasis.contains)
    full, support = staticmethod(EchelonBasis.is_full), staticmethod(_mask)
    pack = unpack = staticmethod(tuple)  # the rows are tuples already

    def __init__(self, f: Field, n: int, mats):
        self.f, self.n, self.codes, self.ops = f, n, f.p ** n, [m.entries for m in mats]
        self.rank = len(mats)
        self.weights = [f.p ** (n - 1 - i) for i in range(n)]

    def seeds(self):
        for v in projective_vectors(self.f, Matrix.identity(self.f, self.n).entries):
            yield sum(map(mul, v, self.weights)), v

    def images(self, seed, code):
        f, weights = self.f, self.weights
        for op in self.ops:
            u = f.dots(op, seed)
            lead = next((x for x in u if x), 0)
            if lead:
                u = u if lead == 1 else f.scale(f.inv(lead), u)
                yield sum(map(mul, u, weights)), u

    def unit(self):
        g = _invertible(self, self.ops)
        one = g and _TupleRows(self.f, self.n, [Matrix._trusted(self.f, g, self.n)])
        return one and (lambda code, y: next(one.images(y, code)))

    def basis(self):
        return EchelonBasis(self.f, self.n)

    @staticmethod
    def canonical(eb):
        return tuple(eb.rows)


class _BitRows:
    """GF(2) rows packed into an int, bit i for coordinate i.

    A basis is a dict from each row's pivot bit, its lowest set bit, to the
    row.  Seeds and images are read from two tables per matrix (the identity
    for the seeds): the matrix applied to every vector on the first n - lo
    and on the last lo coordinates, lo = n // 2, in code order, built when
    first used.  weight[mask], over all 2^n masks, is the code of the vector
    with a 1 at each bit of mask.  Over GF(2) both are arrays of 4 bytes an
    entry.
    """

    pack, support, add, basis = staticmethod(_mask), staticmethod(int), staticmethod(xor), dict
    table = partial(array, "I")

    def __init__(self, f: Field, n: int, mats):
        self.f, self.n, self.codes, self.lo, self.rank = f, n, f.p ** n, n // 2, len(mats)
        self.mats, self.tables = [Matrix.identity(f, n)] + mats, [None] * (len(mats) + 1)
        self.weight = array("I", [0])
        for w in (f.p ** (n - 1 - i) for i in range(n)):
            self.weight += array("I", (x + w for x in self.weight))

    def _tables(self, rows):
        add, cols, out = self.add, [self.pack(c) for c in zip(*rows)], []
        for coords in (range(self.n - self.lo), range(self.n - self.lo, self.n)):
            vecs = [self.pack((0,) * self.n)]
            for j in coords:
                multiples = list(itertools.accumulate([cols[j]] * (self.f.p - 1), add, initial=vecs[0]))
                vecs = [add(v, u) for v in vecs for u in multiples]
            out.append(self.table(vecs))
        return out

    def unit(self):
        g, add, monic = _invertible(self, [m.entries for m in self.mats[1:]]), self.add, self.monic
        if g:
            (high, low), base = self._tables(g), self.f.p ** self.lo
            return lambda code, y: monic(add(high[code // base], low[code % base]))

    def seeds(self):
        (high, low), p, base = self._tables(self.mats[0].entries), self.f.p, self.f.p ** self.lo
        for k in reversed(range(self.n)):
            for code in range(p ** k, 2 * p ** k):
                yield code, self.add(high[code // base], low[code % base])

    def images(self, seed, code):
        h, l = divmod(code, self.f.p ** self.lo)
        tables, add, monic = self.tables, self.add, self.monic
        for i in range(1, len(self.mats)):
            if not tables[i]:
                tables[i] = self._tables(self.mats[i].entries)
            high, low = tables[i]
            u = monic(add(high[h], low[l]))
            if u:
                yield u

    def monic(self, y):
        if y:
            return self.weight[y], y

    def reduce(self, basis, y):
        """(b, y): y reduced at the basis' pivots until its lowest nonzero
        bit b is none of them, and b = 0 when y reduces to 0."""
        while y & -y in basis:
            y ^= basis[y & -y]
        return y & -y, y

    @staticmethod
    def clear(y, row, b):
        """y minus y_b times row, where y_b is not 0 and row is 1 at b."""
        return y ^ row

    def insert(self, basis, y):
        b, y = self.reduce(basis, y)
        if b:
            basis[b] = self.monic(y)[1]

    def contains(self, w, v) -> bool:
        return not self.reduce(w, v)[0]

    def full(self, basis) -> bool:
        return len(basis) == self.n

    def canonical(self, basis):
        # back-substitute from the largest pivot down: the rows used are final
        # and zero at every other pivot, so each clears one coordinate
        pivots = sum(basis)
        for c in sorted(basis, reverse=True):
            bits = self.support(basis[c]) & pivots & ~c
            while bits:
                b = bits & -bits
                basis[c] = self.clear(basis[c], basis[b], b)
                bits ^= b
        return tuple(basis[b] for b in sorted(basis))

    def unpack(self, row) -> tuple:
        """A monic row's coordinates, read from its code."""
        code, p = self.monic(row)[0], self.f.p
        return tuple(code // p ** (self.n - 1 - i) % p for i in range(self.n))


class _TritRows(_BitRows):
    """GF(3) rows bitsliced into a pair (plus, minus) of ints: bit i of plus
    (minus) says that coordinate i is 1 (-1).  A sum takes six boolean
    operations and a negation swaps the pair.  The tables hold the pairs."""

    table = tuple

    @staticmethod
    def pack(v):
        return _mask(x == 1 for x in v), _mask(x == 2 for x in v)

    @staticmethod
    def add(y, c):
        (yp, ym), (cp, cm) = y, c
        t = (yp | cm) ^ (ym | cp)
        return (ym | cm) ^ t, (yp | cp) ^ t

    def monic(self, y):
        if y[0] | y[1]:
            y = y[::-1] if y[1] & (y[0] | y[1]) & -(y[0] | y[1]) else y
            return self.weight[y[0]] + 2 * self.weight[y[1]], y

    def reduce(self, basis, y):
        b = (y[0] | y[1]) & -(y[0] | y[1])
        while b in basis:
            y = self.clear(y, basis[b], b)
            b = (y[0] | y[1]) & -(y[0] | y[1])
        return b, y

    def clear(self, y, row, b):
        return self.add(y, row[::-1] if y[0] & b else row)

    @staticmethod
    def support(v) -> int:
        return v[0] | v[1]


def _seeks_unit(rows) -> bool:
    """The orbit rule's size gate, on n, dim E and p alone: G is sought only
    where dim E >= 2 and the sweep has at least 4 n dim E seeds."""
    return rows.rank >= 2 and 4 * rows.n * rows.rank <= (rows.codes - 1) // (rows.f.p - 1)


def _invertible(rows, mats):
    """The rows of G for the orbit rule of the module docstring, or None;
    mats are E's basis matrices, given by their rows, and rows has passed
    _seeks_unit."""
    p = rows.f.p
    rng = random.Random(0)
    for _ in range(4):
        c = [rng.randrange(p) for _ in mats]
        g = [tuple(sum(map(mul, c, xs)) % p for xs in zip(*rs)) for rs in zip(*mats)]
        basis = rows.basis()
        for row in g:
            rows.insert(basis, rows.pack(row))
        if rows.full(basis):
            return g


def _seed_sweep(rows):
    """Yield (seed, closure rows) for every projective seed, in rows' format,
    by the memo and orbit rules of the module docstring.  The caller has
    passed _require_seed_budget."""
    memo = array("I", [0]) * rows.codes
    closures, ids = [], {}
    images, insert, contains, full = rows.images, rows.insert, rows.contains, rows.full
    # G is sought after `search` more closures; a sweep too small to seek it counts none
    turn, search = None, 4 * rows.n if _seeks_unit(rows) else 0
    for code, seed in rows.seeds():
        k = memo[code]
        if not k:
            basis = rows.basis()
            for u_code, u in images(seed, code):
                k = memo[u_code]
                if k and contains(closures[k - 1][1], seed):
                    break
                for row in closures[k - 1][0] if k else (u,):  # W's rows, or u alone
                    insert(basis, row)
                k = 0
                if full(basis):
                    break
            if not k:
                out = rows.canonical(basis)
                k = ids.get(out)
                if k is None:  # ids are 1-based, so 0 in the memo means "not swept"
                    closures.append((out, basis))
                    k = ids[out] = len(closures)
            memo[code] = k
            if turn:  # the seed's orbit under G, up to a ray holding k
                u_code, u = turn(code, seed)
                while memo[u_code] != k:
                    memo[u_code] = k
                    u_code, u = turn(u_code, u)
            elif search:
                search -= 1
                if not search:
                    turn = rows.unit()
        yield seed, closures[k - 1][0]


def _row_format(f: Field, n: int, lefts, rights):
    """The sweep's rows for f^n, holding the basis of E that the operators span."""
    mats = envelope(BimoduleAction(f, n, lefts, rights))[1]
    return {2: _BitRows, 3: _TritRows}.get(f.p, _TupleRows)(f, n, mats)


def _beyond_cyclic_cap() -> BudgetError:
    return BudgetError(
        f"more than {LATTICE_CAP} cyclic invariant subspaces; instance is beyond oracle scale"
    )


def _scalar_action(f: Field, n: int, lefts, rights, budget: int) -> bool:
    """Does every operator act on f^n as a scalar c I?

    Then every subspace is invariant, by the definition of invariance, and
    no sweep is needed.  Its refusals still fire, in the same order: E, the
    span of the products L R, is F I or 0, so the sweep would find the
    (p^n - 1)/(p - 1) lines as its distinct closures, or the zero closure
    alone, against LATTICE_CAP; then the subspace budget.
    """
    scalars = []
    for op in (*lefts, *rights):
        c = op.entries[0][0] if n else 0
        if op.entries != tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n)):
            return False
        scalars.append(c)
    p, k = f.p, len(lefts)
    if any(a * b % p for a in scalars[:k] for b in scalars[k:]):
        closures = (p ** n - 1) // (p - 1)
    else:
        closures = int(n > 0)
    if closures > LATTICE_CAP:
        raise _beyond_cyclic_cap()
    _require_subspace_budget(f, n, budget)
    return True


def _cyclic_lattice(f: Field, n: int, lefts, rights, budget: int) -> List[Subspace]:
    """All subspaces of f^n invariant under the given multiplication operators.

    Every subspace, where the operators act by scalars.  Otherwise every
    invariant subspace is a sum of cyclic ones, so the sweep spins one
    vector per projective ray, and the lattice is then joined one cyclic
    closure at a time, smallest first: after k generators it holds exactly
    the sums of subsets of the first k, a set closed under sums, so a
    generator already in it adds nothing and is skipped, and each other one
    adds its sum with every member.
    """
    if _scalar_action(f, n, lefts, rights, budget):
        return enumerate_subspaces(n, f, budget)
    fmt = _row_format(f, n, lefts, rights)
    cyclic = set()
    for _, rows in _seed_sweep(fmt):
        cyclic.add(rows)
        if len(cyclic) > LATTICE_CAP:
            raise _beyond_cyclic_cap()
    if all(len(rows) <= 1 for rows in cyclic):
        # Only on data that fails validation, where E need not hold I: no
        # closure is more than a line, and every subspace is taken.
        return enumerate_subspaces(n, f, budget)
    lattice = {Subspace.zero(f, n)}
    closures = (Matrix._trusted(f, tuple(map(fmt.unpack, rows)), n) for rows in cyclic)
    for c in sorted((Subspace._trusted(f, n, m) for m in closures), key=_subspace_key):
        if c not in lattice:
            lattice |= {subspace_sum(s, c) for s in lattice}
            if len(lattice) > LATTICE_CAP:
                raise BudgetError(f"invariant-subspace lattice exceeds {LATTICE_CAP} members")
    return sorted(lattice, key=_subspace_key)


# --------------------------------------------------------------------------
# the oracle proper
# --------------------------------------------------------------------------


def enumerate_sub_bimodules(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> List[Subspace]:
    """All subspaces of R invariant under both-sided multiplication by R_e.

    Returned flat (as subspaces of R in its flat coordinates) because a
    sub-bimodule has no reason to be graded; graded_subspace_from_flat
    recovers the component form exactly when one exists.
    """
    _require_seed_budget(alg, budget)
    return _cyclic_lattice(alg.field, alg.dim, *alg.identity_ops(), budget)


def sub_bimodule_dims(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> dict:
    """{dim: count} of the sub-bimodules that enumerate_sub_bimodules lists.

    Where R_e acts by scalars every subspace of R is one, and the counts
    are the Gaussian binomials, with no subspace built; otherwise they are
    counted from the list.  Both ways refuse the same instances with the
    same BudgetError.
    """
    _require_seed_budget(alg, budget)
    f, n = alg.field, alg.dim
    if _scalar_action(f, n, *alg.identity_ops(), budget):
        return {k: gaussian_binomial(n, k, f.p) for k in range(n + 1)}
    dims: dict = {}
    for s in enumerate_sub_bimodules(alg, budget=budget):
        dims[s.dim] = dims.get(s.dim, 0) + 1
    return dims


def ideal_oracle(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> List[Tuple[Subspace, bool]]:
    """All two-sided ideals, each flagged graded or not."""
    _require_seed_budget(alg, budget)
    ideals = _cyclic_lattice(
        alg.field, alg.dim, alg.flat_left_ops(), alg.flat_right_ops(), budget
    )
    return [(s, graded_subspace_from_flat(alg, s) is not None) for s in ideals]


def _subsets_isomorphic(alg: GradedAlgebra, s_set, t_set, budget: int) -> bool:
    """Exhaustive bimodule-isomorphism test between R_S and R_T."""
    f = alg.field
    dim = sum(alg.comp_dims[g] for g in s_set)
    if dim != sum(alg.comp_dims[g] for g in t_set):
        return False
    a = BimoduleAction(f, dim, *alg.subset_ops(s_set))
    b = BimoduleAction(f, dim, *alg.subset_ops(t_set))
    homs = hom_space(a, b)
    if homs.dim == 0:
        return False
    if f.p ** homs.dim > budget:
        raise BudgetError(
            f"isomorphism search space {f.p}^{homs.dim} exceeds budget {budget}"
        )
    for flat in projective_vectors(f, homs.basis.entries):
        if nullspace(Matrix._unflatten(f, flat, a.dim)).dim == 0:
            return True
    return False


def controlled_oracle(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Check both defining clauses of a controlled gradation head-on.

    Clause one, the subsets of G classify the sub-bimodules: the map is
    injective iff no component vanishes, and surjective iff the spin of
    every single vector lands on R_{supp(v)} exactly (every sub-bimodule is
    a sum of such spins, and sums of the R_H stay of that shape).  Clause
    two, distinct subsets give non-isomorphic bimodules, is tested pairwise
    with an exhaustive search through each Hom space.
    """
    f = _require_prime(alg)
    if any(d == 0 for d in alg.comp_dims):
        return False
    _require_seed_budget(alg, budget)
    fmt = _row_format(f, alg.dim, *alg.identity_ops())
    masks = [(((1 << d) - 1) << alg.offsets[g], d) for g, d in enumerate(alg.comp_dims)]
    for seed, rows in _seed_sweep(fmt):
        support = fmt.support(seed)
        if len(rows) != sum(d for mask, d in masks if support & mask):
            return False

    order = alg.group.order
    subsets = []
    for r in range(1, order + 1):
        subsets.extend(itertools.combinations(range(order), r))
    for s_set, t_set in itertools.combinations(subsets, 2):
        if _subsets_isomorphic(alg, s_set, t_set, budget):
            return False
    return True


def _closed_under_products(table, w: Subspace) -> bool:
    """Is R_e + W closed under multiplication, W a sub-bimodule of R/R_e?

    table[i][j] holds the nonzero (k, x) of b_i b_j in the quotient's
    coordinates.  R_e + W is an R_e-sub-bimodule holding R_e, so only the
    products of W's rows remain, and one lies in R_e + W exactly when its
    quotient coordinates x lie in W.  W's rows are in RREF, row r with a 1
    at its pivot c_r and a 0 at every other pivot, so x lies in W exactly
    when its residue x - sum_r x[c_r] row_r is 0 mod p.
    """
    rows, p = w.basis.entries, w.field.p
    m = w.ambient_dim
    reducers = [
        (row.index(1), [(k, b) for k, b in enumerate(row) if b]) for row in rows
    ]  # a row's first nonzero entry is its pivot's 1
    for u in rows:
        terms = [(table[i], a) for i, a in enumerate(u) if a]
        for v in rows:
            x = [0] * m
            for ti, a in terms:
                for j, b in enumerate(v):
                    if b:
                        ab = a * b
                        for k, c in ti[j]:
                            x[k] += ab * c
            for c, row in reducers:
                a = x[c] % p
                if a:
                    for k, b in row:
                        x[k] -= a * b
            if any(y % p for y in x):
                return False
    return True


def _lift(n: int, keep, w: Subspace) -> Subspace:
    """R_e + W inside R: W's rows put back at the kept coordinates, and a
    unit vector at each of R_e's."""
    rows = []
    for row in w.basis.entries:
        full = [0] * n
        for k, x in zip(keep, row):
            full[k] = x
        rows.append(full)
    kept = set(keep)
    rows += [[int(c == k) for c in range(n)] for k in range(n) if k not in kept]
    return Subspace.from_vectors(w.field, n, rows)


def subring_oracle(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> List[Subspace]:
    """Unital subrings of R containing the identity component.

    Any such subring is in particular an R_e-sub-bimodule holding R_e,
    which holds the unit.  By the correspondence theorem for modules these
    are exactly the lifts R_e + W of the sub-bimodules W of the quotient
    R/R_e, so the enumeration runs on the quotient's lattice and keeps the
    lifts closed under multiplication.  That theorem is about modules
    alone, not graded rings, so the route stays brute force.  As an
    R_e-bimodule, R/R_e is the sum of the other components.
    """
    _require_seed_budget(alg, budget)
    f, e = alg.field, alg.group.identity
    others = [g for g in range(alg.group.order) if g != e]
    lefts, rights = alg.subset_ops(others)
    keep = [alg.offsets[g] + i for g in others for i in range(alg.comp_dims[g])]
    left_ops = [alg.flat_left_ops()[i].entries for i in keep]
    table = [
        [tuple((k, op[r][j]) for k, r in enumerate(keep) if op[r][j]) for j in keep]
        for op in left_ops
    ]
    out = [
        _lift(alg.dim, keep, w)
        for w in _cyclic_lattice(f, len(keep), lefts, rights, budget)
        if _closed_under_products(table, w)
    ]
    return sorted(out, key=_subspace_key)
