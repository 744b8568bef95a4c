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
projective ray, under the algebra E spanned by the operator products L R
(_operator_span), so closure(v) = E v.  The two sweeps (_packed_sweep on
bitmasks over GF(2), _generic_sweep over odd p) remember each seed's
closure and reuse it under one memo rule: for each basis matrix M of E in
turn, let u = M v, scaled to a leading 1.  A zero u is skipped.  If u was
swept earlier, W = closure(u) = E M v lies in E v because E is closed
under products (on data that fails validation it need not be, and the
oracle's answer means nothing there); so if v is in W then closure(v) = W
and the seed is done, and otherwise W's rows join the span.  An unswept u joins the span alone.
The span stops growing at full rank.  The rule uses nothing but the
definition of the closure, so the oracle stays brute force: it still
visits every seed and consults no theorem about graded rings.  The memo
is an array of closure ids indexed by the seed's code (the packed int, or
the base-p code), a few bytes per seed; it is allocated only after the
p^n seed vectors have passed the budget, so it stays within the budget.
"""

import itertools
from array import array
from operator import mul
from typing import List, Optional, Tuple

from .algebra import GradedAlgebra, graded_subspace_from_flat
from .bimodule import BimoduleAction, hom_space
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

# Join closure over the distinct cyclic sub-bimodules is quadratic in the
# lattice size, so the lattice itself gets a hard cap independent of the
# seed-vector budget.
LATTICE_CAP = 4096


def _require_prime(alg_or_field) -> Field:
    f = alg_or_field if isinstance(alg_or_field, Field) else alg_or_field.field
    if f.p == 0:
        raise InvalidInput("the oracle only runs over finite prime fields")
    return f


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


def enumerate_subspaces(dim: int, f: Field, budget: int = DEFAULT_BUDGET) -> List[Subspace]:
    """Every subspace of f^dim exactly once, in canonical RREF form.

    Generation walks rank by rank over pivot-column patterns and fills the
    free entries, which produces each reduced row echelon form directly
    instead of deduplicating spans.
    """
    _require_prime(f)
    total = count_subspaces(f.p, dim)
    if total > budget:
        raise BudgetError(f"{total} subspaces of GF({f.p})^{dim} exceed budget {budget}")
    elems = list(range(f.p))
    out = []
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            pivot_set = set(pivots)
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, dim)
                if c not in pivot_set
            ]
            for values in itertools.product(elems, repeat=len(free)):
                rows = [[0] * dim for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), val in zip(free, values):
                    rows[r][c] = val
                out.append(Subspace(f, dim, Matrix(f, rows, cols=dim), _canonical=True))
    out.sort(key=_subspace_key)
    return out


def _subspace_key(s: Subspace):
    return (s.dim, s.basis.entries)


# --------------------------------------------------------------------------
# closure machinery
# --------------------------------------------------------------------------


def _operator_span(f: Field, lefts, rights, dim: int) -> List[Matrix]:
    """Independent spanning set of the algebra generated by the operators.

    The left and right families each span the image of a unital algebra
    and commute with one another, so the products L R already span a
    multiplication-closed space containing the identity; one echelon pass
    over them is a complete basis.
    """
    eb = EchelonBasis(f, dim * dim)
    mats = []
    for l in lefts:
        for r in rights:
            m = l @ r
            if eb.add(m.flatten()):
                mats.append(m)
    return mats


def _seed_sweep(alg: GradedAlgebra, lefts, rights, budget: int):
    """Each seed vector, one per projective ray, with its closure under E.

    Refuses the instance before anything is allocated when the p^n seed
    vectors exceed the budget.  The sweep itself is lazy: see _packed_sweep
    and _generic_sweep.
    """
    f = _require_prime(alg)
    n = alg.dim
    if f.p ** n > budget:
        raise BudgetError(
            f"{f.p}^{n} seed vectors exceed budget {budget} for dimension {n}"
        )
    mats = _operator_span(f, lefts, rights, n)
    if f.p == 2:
        return _packed_sweep(mats, n)
    return _generic_sweep(f, mats, n)


def _closure_id(ids: dict, closures: list, key, entry) -> int:
    """Id of the closure with this key; a new key appends its entry.

    Ids are 1-based positions in closures, so 0 can mean "not swept".
    """
    k = ids.get(key)
    if k is None:
        closures.append(entry)
        k = ids[key] = len(closures)
    return k


# Over GF(2) the seed sweeps dominate the oracle's runtime, so vectors are
# packed into integers (bit i = coordinate i) and the closure runs on
# bitmasks.  A closure is held as its fully reduced echelon rows sorted by
# pivot (the lowest set bit), which is its canonical RREF basis.


def _packed_columns(mat: Matrix, dim: int) -> List[int]:
    cols = []
    for c in range(dim):
        mask = 0
        for r in range(dim):
            if mat.entries[r][c]:
                mask |= 1 << r
        cols.append(mask)
    return cols


def _packed_apply(cols: List[int], v: int) -> int:
    y = 0
    while v:
        low = v & -v
        y ^= cols[low.bit_length() - 1]
        v ^= low
    return y


def _packed_insert(by_pivot: dict, y: int) -> None:
    """Reduce y by the rows keyed by their lowest bit; keep a nonzero rest."""
    while y:
        piv = (y & -y).bit_length() - 1
        row = by_pivot.get(piv)
        if row is None:
            by_pivot[piv] = y
            return
        y ^= row


def _packed_canonical(by_pivot: dict) -> Tuple[int, ...]:
    # Back-substitute from the largest pivot down; a row's bits below its
    # own pivot are already zero, so each row being used is final.
    for p in sorted(by_pivot, reverse=True):
        row = by_pivot[p]
        bit = 1 << p
        for q in by_pivot:
            if q < p and by_pivot[q] & bit:
                by_pivot[q] ^= row
    return tuple(by_pivot[p] for p in sorted(by_pivot))


def _packed_contains(rows: Tuple[int, ...], v: int) -> bool:
    for row in rows:
        if v & row & -row:
            v ^= row
    return not v


def _packed_sweep(mats: List[Matrix], dim: int):
    """Yield (seed, closure rows) for every nonzero seed of GF(2)^dim.

    Follows the memo rule of the module docstring; the memo is indexed by
    the packed seed itself.
    """
    colmats = [_packed_columns(m, dim) for m in mats]
    memo = array("I", [0]) * (1 << dim)
    closures: List[Tuple[int, ...]] = []
    ids: dict = {}
    for seed in range(1, 1 << dim):
        by_pivot: dict = {}
        k = 0
        for cols in colmats:
            u = _packed_apply(cols, seed)
            if not u:
                continue
            k = memo[u]
            if k:
                rows = closures[k - 1]
                if _packed_contains(rows, seed):
                    break
                k = 0
                for row in rows:
                    _packed_insert(by_pivot, row)
            else:
                _packed_insert(by_pivot, u)
            if len(by_pivot) == dim:
                break
        if not k:
            rows = _packed_canonical(by_pivot)
            k = _closure_id(ids, closures, rows, rows)
        memo[seed] = k
        yield seed, closures[k - 1]


def _generic_sweep(f: Field, mats: List[Matrix], dim: int):
    """Yield (seed, closure rows) for every projective seed of GF(p)^dim.

    Seeds come from projective_vectors, so their first nonzero entry is 1;
    the closure rows are the canonical RREF basis as tuples.  Follows the
    memo rule of the module docstring, with the memo indexed by the base-p
    code of a vector scaled to a leading 1.  The products run on the raw
    entry tuples, which are already reduced mod p.
    """
    p = f.p
    weights = [p ** (dim - 1 - i) for i in range(dim)]
    memo = array("I", [0]) * p ** dim
    closures: List[Tuple[tuple, EchelonBasis]] = []
    ids: dict = {}
    ops = [m.entries for m in mats]
    for seed in projective_vectors(f, Matrix.identity(f, dim).entries):
        eb = EchelonBasis(f, dim)
        k = 0
        for op in ops:
            u = [sum(map(mul, row, seed)) % p for row in op]
            lead = next((x for x in u if x), 0)
            if not lead:
                continue
            if lead != 1:
                inv = pow(lead, p - 2, p)
                u = [x * inv % p for x in u]
            k = memo[sum(map(mul, u, weights))]
            if k:
                w = closures[k - 1][1]
                if w.contains(seed):
                    break
                k = 0
                for row in w.rows:
                    eb.add(row)
            else:
                eb.add(u)
            if eb.rank == dim:
                break
        if not k:
            rows = tuple(map(tuple, eb.rows))
            k = _closure_id(ids, closures, rows, (rows, eb))
        memo[sum(map(mul, seed, weights))] = k
        yield seed, closures[k - 1][0]


def _closure_subspace(f: Field, rows, dim: int) -> Subspace:
    """The Subspace of a closure's canonical rows, packed or not."""
    if f.p == 2:
        rows = [[(r >> i) & 1 for i in range(dim)] for r in rows]
    return Subspace(f, dim, Matrix(f, rows, cols=dim), _canonical=True)


def _identity_ops(alg: GradedAlgebra):
    e = alg.group.identity
    lefts = alg.flat_left_ops()
    rights = alg.flat_right_ops()
    idx = [alg.flat_index(e, i) for i in range(alg.comp_dims[e])]
    return [lefts[k] for k in idx], [rights[k] for k in idx]


def _cyclic_lattice(alg: GradedAlgebra, lefts, rights, budget: int) -> List[Subspace]:
    """All subspaces invariant under the given multiplication operators.

    Every invariant subspace is a sum of cyclic ones, so the sweep spins
    one vector per projective ray and then closes the resulting set under
    pairwise sums.
    """
    f, n = alg.field, alg.dim
    cyclic = set()
    for _, rows in _seed_sweep(alg, lefts, rights, budget):
        cyclic.add(rows)
        if len(cyclic) > LATTICE_CAP:
            raise BudgetError(
                f"more than {LATTICE_CAP} cyclic invariant subspaces; "
                "instance is beyond oracle scale"
            )
    if all(len(rows) <= 1 for rows in cyclic):
        # Scalar action: every subspace is invariant.
        return enumerate_subspaces(n, f, budget)
    known = {Subspace.zero(f, n)}
    known.update(_closure_subspace(f, rows, n) for rows in cyclic)
    queue = list(known)
    while queue:
        w = queue.pop()
        for u in list(known):
            s = subspace_sum(u, w)
            if s not in known:
                known.add(s)
                queue.append(s)
                if len(known) > LATTICE_CAP:
                    raise BudgetError(
                        f"invariant-subspace lattice exceeds {LATTICE_CAP} members"
                    )
    return sorted(known, key=_subspace_key)


# --------------------------------------------------------------------------
# the oracle proper
# --------------------------------------------------------------------------


def enumerate_sub_bimodules(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> List[Subspace]:
    """All subspaces of R invariant under both-sided multiplication by R_e.

    Returned flat (as subspaces of R in its flat coordinates) because a
    sub-bimodule has no reason to be graded; graded_subspace_from_flat
    recovers the component form exactly when one exists.
    """
    lefts, rights = _identity_ops(alg)
    return _cyclic_lattice(alg, lefts, rights, budget)


def ideal_oracle(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> List[Tuple[Subspace, bool]]:
    """All two-sided ideals, each flagged graded or not."""
    ideals = _cyclic_lattice(alg, alg.flat_left_ops(), alg.flat_right_ops(), budget)
    return [(s, graded_subspace_from_flat(alg, s) is not None) for s in ideals]


def _subset_flat_indices(alg: GradedAlgebra, subset) -> List[int]:
    idx = []
    for g in subset:
        off = alg.offsets[g]
        idx.extend(range(off, off + alg.comp_dims[g]))
    return idx


def _subset_component_action(alg: GradedAlgebra, subset) -> BimoduleAction:
    """R_S as an R_e-bimodule, cut out of the flat coordinates directly."""
    idx = _subset_flat_indices(alg, subset)
    lefts, rights = _identity_ops(alg)

    def cut(op):
        return Matrix(alg.field, [[op.entries[r][c] for c in idx] for r in idx])

    return BimoduleAction(
        alg.field, len(idx), [cut(m) for m in lefts], [cut(m) for m in rights]
    )


def _unflatten(f: Field, flat, m: int) -> Matrix:
    return Matrix(f, [flat[r * m : (r + 1) * m] for r in range(m)], cols=m)


def _subsets_isomorphic(alg: GradedAlgebra, s_set, t_set, budget: int) -> bool:
    """Exhaustive bimodule-isomorphism test between R_S and R_T."""
    f = alg.field
    a = _subset_component_action(alg, s_set)
    b = _subset_component_action(alg, t_set)
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    homs = hom_space(a, b)
    if homs.dim == 0:
        return False
    if f.p ** homs.dim > budget:
        raise BudgetError(
            f"isomorphism search space {f.p}^{homs.dim} exceeds budget {budget}"
        )
    for flat in projective_vectors(f, homs.basis.entries):
        if nullspace(_unflatten(f, flat, a.dim)).dim == 0:
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
    lefts, rights = _identity_ops(alg)
    sweep = _seed_sweep(alg, lefts, rights, budget)
    spans = [(alg.offsets[g], alg.comp_dims[g]) for g in range(alg.group.order)]
    if f.p == 2:
        masks = [(((1 << d) - 1) << off, d) for off, d in spans]

        def support_dim(seed):
            return sum(d for mask, d in masks if seed & mask)
    else:

        def support_dim(seed):
            return sum(d for off, d in spans if any(seed[off : off + d]))

    for seed, rows in sweep:
        if len(rows) != support_dim(seed):
            return False

    order = alg.group.order
    subsets = []
    for r in range(1, order + 1):
        subsets.extend(itertools.combinations(range(order), r))
    for s_set, t_set in itertools.combinations(subsets, 2):
        if _subsets_isomorphic(alg, s_set, t_set, budget):
            return False
    return True


def subring_oracle(alg: GradedAlgebra, *, budget: int = DEFAULT_BUDGET) -> List[Subspace]:
    """Unital subrings of R containing the identity component.

    Any such subring is in particular an R_e-sub-bimodule, so the
    enumeration filters the sub-bimodule lattice for containment of R_e
    and closure under multiplication.
    """
    subs = enumerate_sub_bimodules(alg, budget=budget)
    e = alg.group.identity
    one_flat = alg.flatten(alg.one())
    e_rows = [alg.flatten(alg.basis_element(e, i)) for i in range(alg.comp_dims[e])]
    out = []
    for s in subs:
        if not s.contains(one_flat):
            continue
        if not all(s.contains(row) for row in e_rows):
            continue
        closed = True
        for u in s.basis.entries:
            xu = alg.from_flat(u)
            for v in s.basis.entries:
                if not s.contains(alg.flatten(xu * alg.from_flat(v))):
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.append(s)
    return sorted(out, key=_subspace_key)
