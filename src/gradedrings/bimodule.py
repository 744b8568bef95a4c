"""Bimodules over the identity component, and exact simplicity tests.

A BimoduleAction packages a vector space M with a left and a right family
of operators, usually multiplications by a basis of the identity component
or of the whole algebra; its invariant subspaces are those every operator
maps into itself.  The Burnside-style density test and the MeatAxe draw
their elements from the span of the products L_i R_j, which lies in the
algebra the operators generate.  `envelope` finds a basis of that span
among the products themselves, forming each one as a sparse row over the
m^2 flat positions and testing it in a `linalg.EchelonBasis`, which holds
its rows sparse, so only the products it keeps are made dense.

Simplicity is decided by a Norton-style MeatAxe with a spin-search
fallback, so a True or False is a theorem about the input, never a sample.
`is_simple` tries these certificates in order and names the deciding one
as `method`: `dimension` (M is a line); over GF(p), Norton's test on
QUICK_TRIALS envelope elements sampled without an envelope basis, each one
with no singular shift then tried as `irreducible-element` (True: its
characteristic polynomial is irreducible, so it generates a field of
degree m over which M is a line; the irreducibility test of Holt and
Rees, 1994); `dense-envelope` (True: the L_i R_j span End(M));
`field-commutant` (True: the commutant is a field C of degree d and the
envelope has rank m^2/d, so it is End_C(M), Burnside's theorem over C;
when d = m, an envelope element with an irreducible minimal polynomial of
degree m decides alone), tried before Norton's test over GF(p) and after
it over Q; Norton's test on SAMPLES elements drawn from the envelope
basis, skipped when the envelope is 0 (no operator products, or only zero
ones); then the spin search, which spins the basis rows and after them
either every projective vector of M (`exhaustive-spin`, True or False
with a witness) or, past the budget, QUICK_TRIALS random vectors
(`sampled-spin`, False with a witness); else `budget` (GF(p)) or
`rational-sampling` (Q), both Inconclusive.  Both runs of Norton's test
try each element with `_norton_shifts`, whose only field-dependent input
is the shifts theta - lam*I, the eigenvalues of theta in the ground field,
none found by a sweep: over GF(p) the roots of theta's characteristic
polynomial (`poly.characteristic_polynomial`, `poly.roots_mod`), over Q
`rational_eigenvalues`, which combines the roots of that polynomial mod a
few primes.  Norton's test reports `meataxe-spin` (False: a nullspace
vector spins to a proper subspace) or `meataxe-norton`, a proof either
way: True when every nullspace line and one nullspace vector of the
transpose spin to the whole space, else False with the annihilator of
that transpose spin as witness.

Whether a span is swept or sampled is decided in one place,
`linalg.span_candidates`: the spin search sweeps M within the budget and
samples it past it, the nullspace lines of Norton's test (at most
NULLSPACE_BUDGET points) are a sweep or nothing, and the one search for
an invertible element, `find_invertible_combo`, sweeps a span of matrices
within its budget and samples SAMPLES combinations past it.  The search
sizes are the constants below; callers choose the seed and the budget.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .errors import InternalInconsistency, InvalidInput
from .linalg import (
    EchelonBasis,
    Field,
    Matrix,
    Subspace,
    _echelon,
    _is_prime,
    annihilator,
    nullspace,
    span_candidates,
)
from .poly import characteristic_polynomial, is_irreducible, minimal_polynomial, roots_mod

# Random draws of a sampled search: Norton trials on envelope elements, and
# the combinations `span_candidates` adds when a span is past its budget.
SAMPLES = 64
# Envelope elements sampled without an envelope basis, tried before the
# whole envelope is built, commutant elements the field-commutant
# certificate draws, and random vectors spun when M is past its budget.
QUICK_TRIALS = 8
# Most projective points of a nullspace whose lines Norton's test spins.
NULLSPACE_BUDGET = 4096
# Moduli of the residue search for rational eigenvalues, and of the
# field-commutant certificate over Q.
RESIDUE_PRIMES = tuple(q for q in range(1009, 2000) if _is_prime(q))


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"
    SKIPPED = "skipped"

    @classmethod
    def from_bool(cls, b: bool) -> "Verdict":
        return cls.TRUE if b else cls.FALSE

    @classmethod
    def all_of(cls, verdicts) -> "Verdict":
        """Kleene's strong conjunction: FALSE if any verdict is, else
        INCONCLUSIVE if any is, else TRUE.  SKIPPED verdicts are ignored."""
        seen = set(verdicts)
        if cls.FALSE in seen:
            return cls.FALSE
        return cls.INCONCLUSIVE if cls.INCONCLUSIVE in seen else cls.TRUE

    def __invert__(self) -> "Verdict":
        """Negation: TRUE and FALSE swap, INCONCLUSIVE and SKIPPED stay."""
        return {Verdict.TRUE: Verdict.FALSE, Verdict.FALSE: Verdict.TRUE}.get(self, self)

    @property
    def decided(self) -> bool:
        return self in (Verdict.TRUE, Verdict.FALSE)

    def __repr__(self):
        return f"Verdict.{self.name}"


class BimoduleAction:
    """M together with a left and a right operator family.

    The invariant subspaces are those that every operator maps into
    itself.  The families need not be closed under composition: `is_simple`
    needs only that each product L_i R_j lies in the algebra the operators
    generate, which holds for any families.  `hom_space` and
    `action_traces` compare two actions operator by operator, so they are
    applied only to sums of components over R_e, whose families are the
    left and right multiplications by the one basis of R_e.
    """

    __slots__ = ("field", "dim", "left_ops", "right_ops", "ops", "tag", "_traces")

    def __init__(self, field: Field, dim: int, left_ops, right_ops, tag: str = ""):
        self.left_ops = tuple(left_ops)
        self.right_ops = tuple(right_ops)
        self.ops = self.left_ops + self.right_ops
        for op in self.ops:
            if op.shape != (dim, dim) or op.field != field:
                raise InvalidInput("operators must be square matrices on M")
        self.field = field
        self.dim = dim
        self.tag = tag
        self._traces = None

    @property
    def traces(self) -> tuple:
        """`action_traces` of this action, computed on first use."""
        if self._traces is None:
            self._traces = action_traces(self)
        return self._traces

    def transpose(self) -> "BimoduleAction":
        return BimoduleAction(
            self.field,
            self.dim,
            [op.transpose() for op in self.left_ops],
            [op.transpose() for op in self.right_ops],
            tag=self.tag + "^t" if self.tag else "",
        )

    def is_invariant(self, sub: Subspace) -> bool:
        span = _echelon(sub.basis)  # one basis tests every image
        return all(
            span.contains(op.apply(row)) for op in self.ops for row in sub.basis.entries
        )

    def __repr__(self):
        return f"BimoduleAction({self.field}, dim {self.dim}{', ' + self.tag if self.tag else ''})"


def component_action(alg, g: int) -> BimoduleAction:
    """R_g as a bimodule over the identity component."""
    lefts, rights = alg.component_ops(g)
    return BimoduleAction(
        alg.field, alg.comp_dims[g], lefts, rights, tag=f"R_{alg.group.names[g]}"
    )


def regular_bimodule_action(alg) -> BimoduleAction:
    """R as a bimodule over itself; invariant subspaces are two-sided ideals."""
    return BimoduleAction(
        alg.field, alg.dim, alg.flat_left_ops(), alg.flat_right_ops(), tag="R/R"
    )


def graded_regular_action(alg) -> BimoduleAction:
    """R over itself with the projections pi_g added to the left family.

    Its invariant subspaces are the graded ideals: the ideals that every
    pi_g maps into itself.
    """
    lefts = alg.flat_left_ops() + alg.projection_ops()
    return BimoduleAction(alg.field, alg.dim, lefts, alg.flat_right_ops(), tag="R/R graded")


def spin(action: BimoduleAction, seed: Sequence) -> Subspace:
    """Smallest invariant subspace containing the seed vector.

    Only the seed is checked: the images of canonical vectors go in unchecked."""
    field = action.field
    basis = EchelonBasis(field, action.dim)
    v = field.vector(seed)
    if len(v) != action.dim:
        raise InvalidInput("vector length differs from ambient dimension")
    queue = [v] if basis._insert(v) else []
    while queue and not basis.is_full():
        v = queue.pop()
        for op in action.ops:
            w = field.dots(op.entries, v)
            if basis._insert(w):
                queue.append(w)
    return basis.to_subspace()


def envelope(action: BimoduleAction):
    """Basis of the span of the products L_i R_j.

    Returns (rank, matrices); the matrices are the products, in (i, j)
    order, that are independent of the ones before them.  The span lies in
    the algebra the operators generate, and is that algebra when both
    families come from a unital algebra.  Stops early once the span is
    dense in End(M).  Each operator is read once, as rows of (column,
    value) pairs of its nonzero entries; each product is summed row by row
    into a dict over the m^2 flat positions (Gustavson's sparse product),
    canonicalized once with `Field.reduce` and tested in the sparse rows of
    an `EchelonBasis`, and only the products kept are made dense.
    """
    m, f = action.dim, action.field
    n, reduce = m * m, f.reduce
    zero_row = (f.zero,) * m
    rights = [r._sparse_rows() for r in action.right_ops]
    basis = EchelonBasis(f, n)
    mats = []
    for left in (l._sparse_rows() for l in action.left_ops):
        for right in rights:
            acc: dict = {}
            for i, lrow in enumerate(left):
                base = i * m
                for k, x in lrow:
                    for j, y in right[k]:
                        pos = base + j
                        acc[pos] = acc[pos] + x * y if pos in acc else x * y
            prod = {k: y for k, y in zip(acc, reduce(acc.values())) if y}
            if basis._insert_sparse(dict(prod)):
                rows = [zero_row] * m
                for k, y in prod.items():
                    i, j = divmod(k, m)
                    if rows[i] is zero_row:
                        rows[i] = list(zero_row)
                    rows[i][j] = y
                mats.append(Matrix._trusted(f, tuple(map(tuple, rows)), m))
                if basis.is_full():
                    return n, mats
    return basis.rank, mats


@dataclass
class SimplicityReport:
    verdict: Verdict
    method: str
    witness: Optional[Subspace] = None
    trials: int = 0
    detail: str = ""

    def __bool__(self):
        return self.verdict is Verdict.TRUE


def _checked_witness(action: BimoduleAction, sub: Subspace) -> Subspace:
    if sub.is_zero() or sub.is_full() or not action.is_invariant(sub):
        raise InternalInconsistency("simplicity witness failed revalidation")
    return sub


def _proper(sub: Subspace, m: int) -> bool:
    return 0 < sub.dim < m


def is_simple(
    action: BimoduleAction, *, seed: int = 0, budget: int = 65536
) -> SimplicityReport:
    """Decide whether M has no invariant subspace other than 0 and M.

    Norton's test runs first, since it proves either verdict; spins, which
    can only refute, come last.  Over GF(p) a quick trial whose element
    has no singular shift proves M simple when that element's
    characteristic polynomial is irreducible: on a field envelope, such as a
    component of a Galois skew group ring, no shift can be singular and
    this certificate decides instead.  Over GF(p) the verdict is conclusive
    whenever the projective points of M fit inside budget, the bound for
    the full projective spin sweep; over the rationals a True or False is
    still certified but the search can end Inconclusive.
    """
    m = action.dim
    f = action.field
    if m == 0:
        raise InvalidInput("simplicity of a zero-dimensional carrier is not defined")
    if m == 1:
        return SimplicityReport(Verdict.TRUE, "dimension")
    rng = random.Random(seed)

    def shifts(theta: Matrix):
        if not f.p:
            return rational_eigenvalues(theta)
        return roots_mod(f.p, characteristic_polynomial(f.p, theta.entries))

    sampled = 0
    # Over GF(p) the singular shifts are the roots of theta's characteristic
    # polynomial chi, so one singular sample usually decides and the
    # m^2-dimensional envelope basis is never built.  chi is irreducible
    # exactly when theta's minimal polynomial, which divides it, is
    # irreducible of degree m; then F[theta] is a field over which M is a
    # line, and every invariant subspace is a theta-invariant one, so 0 or
    # M.  A root makes chi reducible (m >= 2), so the test is skipped then;
    # it draws nothing from rng, so the steps below see the draws they would.
    while f.p and sampled < QUICK_TRIALS:
        sampled += 1
        theta = _sampled_envelope_element(action, rng)
        chi = characteristic_polynomial(f.p, theta.entries)
        roots = roots_mod(f.p, chi)
        quick = _norton_shifts(action, theta, roots, rng)
        if not roots and is_irreducible(f.p, chi):
            quick = SimplicityReport(Verdict.TRUE, "irreducible-element")
        if quick is not None:
            quick.trials = sampled
            return quick

    rank, env = envelope(action)
    if rank == m * m:
        return SimplicityReport(Verdict.TRUE, "dense-envelope", trials=sampled)
    # A field commutant leaves Norton's test no singular shift, so over
    # GF(p) the certificate goes first.  Over Q, Norton's rational shifts
    # refute a non-simple module in a few trials, where the certificate's
    # draws and rational hom space cost more, so it goes second.
    report = _field_commutant(action, env, seed) if f.p else None
    thetas = (_random_envelope_element(action, env, rng) for _ in range(SAMPLES))
    used = 0
    if report is None and env:
        report, used = _norton_trials(action, thetas, shifts, rng)
    if report is None and not f.p:
        report = _field_commutant(action, env, seed)
    if report is None:
        report = _exhaustive_spin(action, rng, budget)
    report.trials = sampled + used
    return report


def _field_commutant(action: BimoduleAction, env: list, seed: int):
    """A TRUE `field-commutant` report when Burnside's theorem over the
    commutant C proves M simple, else None.

    Everything the operators generate commutes with C.  When C is a field
    of degree d, End_C(M) has dimension m^2/d over the ground field, so an
    envelope of rank m^2/d is all of End_C(M) and M is simple.  The rank
    is checked first, for free: d = m^2/rank must be an integer of at least
    2 that divides m.  Then dim C = d, and C = F[c] is a field when some c
    drawn from C has an irreducible minimal polynomial of degree d; at
    most QUICK_TRIALS are drawn.  When d = m, c is drawn from the envelope
    instead and C is never built: a c with an irreducible minimal
    polynomial of degree m leaves no proper subspace invariant, and C lies
    in its commutant, the field F[c] (C is all of F[c] when the operators
    lie in the envelope, as when a combination of either family is the
    identity).  Over GF(p) a reducible minimal
    polynomial ends the search, as C is then no field.  Over Q the k-th
    draw is scaled to an integer matrix A, whose minimal polynomial mu is
    monic with integer coefficients, and read mod the k-th of the
    RESIDUE_PRIMES, q: the minimal polynomial of A mod q divides mu mod q,
    so when it has degree d (which bounds deg mu, as Q[c] lies in a
    d-dimensional algebra) the two are equal, and when it is irreducible so
    is mu over Z, hence over Q (Gauss's lemma).  The draws come from a
    generator of their own, so a certificate that fails leaves every later
    draw of `is_simple` as it was.
    """
    m, f, rank = action.dim, action.field, len(env)
    d, rest = divmod(m * m, rank) if rank else (0, 1)
    if rest or d < 2 or m % d:
        return None
    homs = env if d == m else hom_matrices(action, action)
    if len(homs) != d:
        return None
    rng = random.Random(seed)
    for q in RESIDUE_PRIMES[:QUICK_TRIALS]:
        c = a = _random_combination(f, homs, rng)
        if not f.p:
            den = lcm(*(x.denominator for row in c.entries for x in row))
            a = Matrix(Field(q), [[int(x * den) for x in row] for row in c.entries])
        mu = minimal_polynomial(a)
        if is_irreducible(a.field.p, mu):
            if len(mu) == d + 1:
                detail = f"the commutant is a field and the envelope has rank {rank} = {m}^2/{d}"
                return SimplicityReport(Verdict.TRUE, "field-commutant", detail=detail)
        elif f.p:
            return None
    return None


def _norton_trials(action: BimoduleAction, thetas, shifts, rng):
    """(the first Norton report over the thetas or None, thetas tried)."""
    used = 0
    for theta in thetas:
        used += 1
        report = _norton_shifts(action, theta, shifts(theta), rng)
        if report is not None:
            return report, used
    return None, used


def _exhaustive_spin(action: BimoduleAction, rng, budget: int) -> SimplicityReport:
    """Spin the basis rows, then every projective vector of M or a sample.

    The rows go first, so a proper invariant subspace that contains a basis
    vector is found within m spins, not a sweep.  When the projective
    points fit the budget the sweep decides either way; past it the rows
    and QUICK_TRIALS random vectors can only refute.
    """
    f, m = action.field, action.dim
    rows = Matrix.identity(f, m).entries
    seeds, complete = span_candidates(f, rows, rng, QUICK_TRIALS, budget)
    method = "exhaustive-spin" if complete else "sampled-spin"
    for v in chain(rows, seeds) if complete else seeds:
        w = spin(action, v)
        if _proper(w, m):
            return SimplicityReport(Verdict.FALSE, method, _checked_witness(action, w))
    if complete:
        return SimplicityReport(Verdict.TRUE, method)
    if not f.p:
        return SimplicityReport(
            Verdict.INCONCLUSIVE,
            "rational-sampling",
            detail="no envelope element with a one-dimensional rational nullspace found",
        )
    return SimplicityReport(
        Verdict.INCONCLUSIVE,
        "budget",
        detail=f"no small nullspace found and {m}-dim projective sweep over "
        f"GF({f.p}) exceeds {budget} points",
    )


def _sampled_envelope_element(action: BimoduleAction, rng) -> Matrix:
    """A uniform random member of the span of the products L_i R_j.

    Draws theta = sum_i L_i (sum_j c_ij R_j) with no envelope basis.  The
    sums run over plain ints and are reduced mod p once, by `Field.reduce`.
    GF(p) only.
    """
    f = action.field
    m = action.dim
    acc = [[0] * m for _ in range(m)]
    for left in action.left_ops:
        s = [[0] * m for _ in range(m)]
        for right in action.right_ops:
            c = f.random_scalar(rng)
            if c:
                s = [
                    [a + c * b for a, b in zip(srow, rrow)]
                    for srow, rrow in zip(s, right.entries)
                ]
        for k, lrow in enumerate(left.entries):
            row = acc[k]
            for t, x in enumerate(lrow):
                if x:
                    row = [a + x * b for a, b in zip(row, s[t])]
            acc[k] = row
    return Matrix._trusted(f, tuple(tuple(f.reduce(row)) for row in acc), m)


def _random_combination(field: Field, mats: list, rng) -> Matrix:
    """sum_k c_k mats[k], drawing one random_scalar per matrix in order."""
    coeffs = [field.random_scalar(rng) for _ in mats]
    flat = tuple(field.combine(coeffs, [m.flatten() for m in mats]))
    return Matrix._unflatten(field, flat, mats[0].cols)


def _random_envelope_element(action: BimoduleAction, env, rng) -> Matrix:
    while True:
        theta = _random_combination(action.field, env, rng)
        if not theta.is_zero():
            return theta


def _norton_step(action: BimoduleAction, theta: Matrix, ker: Subspace, rng):
    """Run the two-sided nullspace test on one singular envelope element.

    ker is theta's nullspace, neither 0 nor M, as theta is singular and
    not zero.  Returns a SimplicityReport, or None when the nullspace is
    too large to sweep.  theta must lie in the enveloping algebra, so that
    both its nullspace and its transpose's are made of invariant-subspace
    seeds.
    """
    m = action.dim
    seeds, complete = span_candidates(action.field, ker.basis.entries, rng, 0, NULLSPACE_BUDGET)
    if not complete:
        return None
    for v in seeds:
        w = spin(action, v)
        if _proper(w, m):
            return SimplicityReport(
                Verdict.FALSE, "meataxe-spin", _checked_witness(action, w)
            )
    # every nullspace line generates M, so any proper invariant subspace
    # avoids the nullspace and theta restricts to it injectively; dually it
    # would contain the annihilator of a full transpose spin, which is what
    # the one remaining seed rules out
    t_action = action.transpose()
    t_ker = nullspace(theta.transpose())
    w0 = t_ker.basis.entries[0]
    t_spin = spin(t_action, w0)
    if t_spin.is_full():
        return SimplicityReport(Verdict.TRUE, "meataxe-norton")
    wit = annihilator(t_spin)
    return SimplicityReport(
        Verdict.FALSE, "meataxe-norton", _checked_witness(action, wit)
    )


def _norton_shifts(action: BimoduleAction, theta: Matrix, shifts, rng):
    """The first Norton report among theta - lam*I over the shifts, or None."""
    f, rows = theta.field, theta.entries
    for lam in shifts:
        cand = theta if not lam else Matrix._trusted(
            f,
            tuple(r[:i] + (f.sub(r[i], lam),) + r[i + 1 :] for i, r in enumerate(rows)),
            theta.cols,
        )
        if cand.is_zero():
            continue
        ker = nullspace(cand)
        if ker.dim:
            report = _norton_step(action, cand, ker, rng)
            if report is not None:
                return report
    return None


# --- eigenvalue search helpers ----------------------------------------------


def rational_eigenvalues(mat: Matrix) -> list:
    """The rational eigenvalues of a matrix over the rationals, ascending.

    Every value returned is an eigenvalue.  Scaled by the common
    denominator to an integer matrix A, whose rational eigenvalues are
    integers r with |r| at most the largest row sum of |A|.  For a prime q,
    r mod q is a root of A's characteristic polynomial mod q, since
    det(A - rI) = 0 stays 0 mod q; `poly.characteristic_polynomial` finds
    that polynomial and `poly.roots_mod` its roots in GF(q), with no sweep
    of GF(q).  The roots mod the RESIDUE_PRIMES are combined by the
    Chinese remainder theorem until the modulus exceeds twice that bound;
    each combination names one candidate, kept when |r| is within the
    bound and A - rI is singular.  A prime with no root ends the search
    with no values, as does reaching more than SAMPLES combinations still
    short of the modulus, which only ever costs conclusiveness.
    """
    f = mat.field
    if f.p != 0:
        raise InvalidInput("rational eigenvalue search is for the rationals")
    den = lcm(*(x.denominator for row in mat.entries for x in row))
    rows = [[x.numerator * (den // x.denominator) for x in row] for row in mat.entries]
    bound = max((sum(map(abs, row)) for row in rows), default=0)
    residues, modulus = [0], 1
    primes = iter(RESIDUE_PRIMES)
    while modulus <= 2 * bound:
        q = next(primes, None)
        if q is None or len(residues) > SAMPLES:
            return []
        roots = roots_mod(q, characteristic_polynomial(q, rows))
        if not roots:
            return []
        step = pow(modulus, -1, q)
        residues = [r + modulus * ((s - r) * step % q) for r in residues for s in roots]
        modulus *= q
    values = []
    for r in sorted(r - modulus if 2 * r > modulus else r for r in residues):
        shifted = [
            [x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)
        ]
        if abs(r) <= bound and not _echelon(Matrix(f, shifted)).is_full():
            values.append(Fraction(r, den))
    return values


# --- homomorphisms and isomorphism tests -------------------------------------


def hom_space(a: BimoduleAction, b: BimoduleAction) -> Subspace:
    """The space of bimodule maps M_a -> M_b, as flattened matrices.

    A map intertwines the generating operators exactly when it intertwines
    the whole enveloping algebra, so only the generators appear in the
    linear system.  Matrices are flattened row-major into an ambient space
    of dimension dim(M_b) * dim(M_a).
    """
    if a.field != b.field:
        raise InvalidInput("bimodules over different fields")
    if len(a.left_ops) != len(b.left_ops) or len(a.right_ops) != len(b.right_ops):
        raise InvalidInput("bimodules over different acting algebras")
    f = a.field
    ma, mb = a.dim, b.dim
    if ma == 0 or mb == 0:
        return Subspace.zero(f, mb * ma)
    n = mb * ma
    zero, reduce = f.zero, f.reduce
    rows = []
    for opa, opb in zip(a.ops, b.ops):
        # phi opa = opb phi, unknowns phi[r][k] flattened row-major: entry
        # (r, c) is sum_k phi[r][k] opa[k][c] - sum_k opb[r][k] phi[k][c]
        opa_cols = tuple(zip(*opa.entries))
        for r in range(mb):
            for c in range(ma):
                row = [zero] * n
                row[r * ma : (r + 1) * ma] = opa_cols[c]
                for k, y in enumerate(opb.entries[r]):
                    if y:
                        row[k * ma + c] -= y
                rows.append(tuple(reduce(row)))
    return nullspace(Matrix._trusted(f, tuple(rows), n))


def hom_matrices(a: BimoduleAction, b: BimoduleAction) -> list:
    """Basis of hom_space(a, b) unflattened into matrices."""
    ma, mb = a.dim, b.dim
    space = hom_space(a, b)
    return [Matrix._unflatten(a.field, flat, ma) for flat in space.basis.entries]


def are_isomorphic_simple(a: BimoduleAction, b: BimoduleAction) -> bool:
    """Isomorphism test for carriers already known to be simple.

    A nonzero map between simple bimodules has zero kernel and full image,
    so existence of any nonzero hom settles the question, over any field.
    Unequal dimensions or action traces rule it out before any hom space
    is built.
    """
    if a.dim == 0 or b.dim == 0:
        raise InvalidInput("zero carriers are not simple bimodules")
    if a.dim != b.dim or a.traces != b.traces:
        return False
    return hom_space(a, b).dim > 0


def action_traces(a: BimoduleAction) -> tuple:
    """Traces of all products L_i R_j; equal for isomorphic bimodules.

    tr(L R) is the sum over i, j of L[i][j] R[j][i], the dot product of L
    and the transpose of R flattened, so no product matrix is formed.
    """
    dots = a.field.dots
    rights = [r.transpose().flatten() for r in a.right_ops]
    return tuple(t for l in a.left_ops for t in dots(rights, l.flatten()))


def find_invertible_combo(field: Field, mats: list, rng, *, budget: int):
    """Search the span of mats for an invertible member.

    Returns (coefficients over mats or None, exhausted), trying the
    candidates of `span_candidates` on coefficient vectors: exhausted True
    means they sweep the span, so None proves there is no invertible
    element.  Non-square matrices, or none, settle every candidate at once.
    When a sweep's first candidate fails, the sweep stops if the columns
    of all the mats together do not span the whole space: every member's
    image lies in their span, so none is onto.  A sweep draws no rng, so
    stopping early changes nothing a later search draws.
    """
    rows = Matrix.identity(field, len(mats)).entries
    candidates, exhausted = span_candidates(field, rows, rng, SAMPLES, budget)
    if not mats or mats[0].rows != mats[0].cols:
        return None, exhausted
    flats = [m.flatten() for m in mats]
    for tried, coeffs in enumerate(candidates):
        cand = Matrix._unflatten(field, tuple(field.combine(coeffs, flats)), mats[0].cols)
        if nullspace(cand).dim == 0:
            return coeffs, exhausted
        if exhausted and tried == 0 and image_rank(field, mats) < mats[0].rows:
            return None, True
    return None, exhausted


def image_rank(field: Field, mats: list) -> int:
    """Dimension of the sum of the images of maps into one codomain (0 for no maps).

    Stops adding columns once they span the codomain.
    """
    if not mats:
        return 0
    acc = EchelonBasis(field, mats[0].rows)
    for m in mats:
        for col in m.transpose().entries:
            if acc.add(col) and acc.is_full():
                return acc.rank
    return acc.rank


@dataclass
class IsoReport:
    verdict: Verdict
    method: str
    witness: Optional[Matrix] = None
    hom_dim: int = dc_field(default=0)

    def __bool__(self):
        return self.verdict is Verdict.TRUE


def bimodules_isomorphic(
    a: BimoduleAction,
    b: BimoduleAction,
    *,
    seed: int = 0,
    budget: int = 4096,
) -> IsoReport:
    """Decide whether two bimodules over the same pair of algebras match.

    Searches the hom space for an invertible member with
    `find_invertible_combo`: a sweep when its projective points fit the
    budget (over Q, when it is a line), a sample otherwise.  For carriers
    known to be simple, `are_isomorphic_simple` decides by Schur's lemma
    instead.
    """
    if a.dim != b.dim:
        return IsoReport(Verdict.FALSE, "dimension")
    if a.dim == 0:
        return IsoReport(Verdict.TRUE, "dimension")
    if a.traces != b.traces:
        return IsoReport(Verdict.FALSE, "trace")
    homs = hom_matrices(a, b)
    if not homs:
        return IsoReport(Verdict.FALSE, "hom-space", hom_dim=0)
    rng = random.Random(seed)
    coeffs, exhausted = find_invertible_combo(a.field, homs, rng, budget=budget)
    if coeffs is not None:
        flat = tuple(a.field.combine(coeffs, [h.flatten() for h in homs]))
        wit = Matrix._unflatten(a.field, flat, a.dim)
        return IsoReport(Verdict.TRUE, "invertible-hom", wit, hom_dim=len(homs))
    if exhausted:
        return IsoReport(Verdict.FALSE, "hom-sweep", hom_dim=len(homs))
    return IsoReport(Verdict.INCONCLUSIVE, "hom-sampling", hom_dim=len(homs))
