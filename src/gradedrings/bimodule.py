"""Bimodules over the identity component, and exact simplicity tests.

A BimoduleAction packages a vector space M with a left and a right family
of operators, usually multiplications by a basis of the identity component
or of the whole algebra; its invariant subspaces are those every operator
maps into itself.  The Burnside-style density test and the MeatAxe draw
their elements from the span of the products L_i R_j, which lies in the
algebra the operators generate.

Simplicity is decided by a Norton-style MeatAxe with a spin-search
fallback, so a True or False is a theorem about the input, never a sample.
`is_simple` tries these certificates in order and names the deciding one
as `method`: `dimension` (M is a line); over GF(p) with p <= 64, Norton's
test on QUICK_TRIALS envelope elements sampled without an envelope basis;
`dense-envelope` (True: the L_i R_j span End(M)); Norton's test on SAMPLES
elements drawn from the envelope basis; then the spin search, which spins
the basis rows and after them either every projective vector of M
(`exhaustive-spin`, True or False with a witness) or, past the budget,
QUICK_TRIALS random vectors (`sampled-spin`, False with a witness); else
`budget` (GF(p)) or `rational-sampling` (Q), both Inconclusive.  Both runs
of Norton's test are one loop, `_norton_trials`, whose only
field-dependent step picks the shifts theta - lam*I: every lam in GF(p)
for p <= 64, sixteen sampled ones for larger p, the rational eigenvalues
over Q.  Norton's test reports `meataxe-spin` (False: a nullspace vector
spins to a proper subspace) or `meataxe-norton`, a proof either way: True
when every nullspace line and one nullspace vector of the transpose spin
to the whole space, else False with the annihilator of that transpose
spin as witness.

Whether a span is swept or sampled is decided in one place,
`linalg.span_candidates`: the spin search sweeps M within the budget and
samples it past it, the nullspace lines of Norton's test (at most
NULLSPACE_BUDGET points) are a sweep or nothing, and the one search for
an invertible element, `find_invertible_combo`, sweeps a span of matrices
within its budget and samples SAMPLES combinations past it.  The search
sizes are the constants below and, in `is_simple`, the p <= 64 threshold
and the sixteen sampled shifts; callers choose the seed and the budget.
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
    _is_prime,
    annihilator,
    nullspace,
    solve,
    span_candidates,
)

# Random draws of a sampled search: Norton trials on envelope elements, and
# the combinations `span_candidates` adds when a span is past its budget.
SAMPLES = 64
# Envelope elements sampled without an envelope basis, tried before the
# envelope is built, and random vectors spun when M is past its budget.
QUICK_TRIALS = 8
# Most projective points of a nullspace whose lines Norton's test spins.
NULLSPACE_BUDGET = 4096
# Moduli of the residue search for rational eigenvalues.
RESIDUE_PRIMES = tuple(q for q in range(1009, 2000) if _is_prime(q))


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"
    SKIPPED = "skipped"

    @classmethod
    def from_bool(cls, b: bool) -> "Verdict":
        return cls.TRUE if b else cls.FALSE

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
        for op in list(left_ops) + list(right_ops):
            if op.shape != (dim, dim) or op.field != field:
                raise InvalidInput("operators must be square matrices on M")
        self.field = field
        self.dim = dim
        self.left_ops = tuple(left_ops)
        self.right_ops = tuple(right_ops)
        self.ops = self.left_ops + self.right_ops
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
        return all(
            sub.contains(op.apply(row)) for op in self.ops for row in sub.basis.entries
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
    """Smallest invariant subspace containing the seed vector."""
    basis = EchelonBasis(action.field, action.dim)
    v = action.field.vector(seed)
    queue = [v] if basis.add(v) else []
    while queue and not basis.is_full():
        v = queue.pop()
        for op in action.ops:
            w = op.apply(v)
            if basis.add(w):
                queue.append(w)
    return basis.to_subspace()


def envelope(action: BimoduleAction):
    """Basis of the span of the products L_i R_j.

    Returns (rank, matrices); the matrices are an independent spanning set.
    The span lies in the algebra the operators generate, and is that
    algebra when both families come from a unital algebra.  Stops early
    once the span is dense in End(M).
    """
    m = action.dim
    basis = EchelonBasis(action.field, m * m)
    mats = []
    for l in action.left_ops:
        for r in action.right_ops:
            prod = l @ r
            if basis.add(prod.flatten()):
                mats.append(prod)
            if basis.is_full():
                return basis.rank, mats
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
    can only refute, come last.  Over GF(p) the verdict is conclusive
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
        return range(f.p) if f.p <= 64 else sorted(rng.sample(range(f.p), 16))

    sampled = 0
    if 0 < f.p <= 64:
        # every shift is tried, so one singular sample usually decides and
        # the n^2-dimensional envelope basis is never built; the cap keeps
        # the cost bounded on envelopes that are fields, where it rarely does
        thetas = (_sampled_envelope_element(action, rng) for _ in range(QUICK_TRIALS))
        report, sampled = _norton_trials(action, thetas, shifts, rng)
        if report is not None:
            report.trials = sampled
            return report

    rank, env = envelope(action)
    if rank == m * m:
        return SimplicityReport(Verdict.TRUE, "dense-envelope", trials=sampled)

    thetas = (_random_envelope_element(action, env, rng) for _ in range(SAMPLES))
    report, used = _norton_trials(action, thetas, shifts, rng)
    if report is None:
        report = _exhaustive_spin(action, rng, budget)
    report.trials = sampled + used
    return report


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
    sums run over plain ints and are reduced mod p once, by the Matrix
    constructor.  GF(p) only.
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
    return Matrix(f, acc, cols=m)


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


def _norton_step(action: BimoduleAction, theta: Matrix, rng):
    """Run the two-sided nullspace test on one singular envelope element.

    Returns a SimplicityReport, or None when the nullspace is too large to
    sweep.  theta must lie in the enveloping algebra, so that both its
    nullspace and its transpose's are made of invariant-subspace seeds.
    """
    m = action.dim
    ker = nullspace(theta)
    if not 0 < ker.dim < m:
        return None
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
        report = _norton_step(action, cand, rng)
        if report is not None:
            return report
    return None


# --- eigenvalue search helpers ----------------------------------------------


def minimal_polynomial(mat: Matrix) -> list:
    """Coefficients [c_0, ..., c_k] of the monic minimal polynomial."""
    f = mat.field
    n = mat.shape[0]
    if n == 0:
        return [f.one]
    powers = [Matrix.identity(f, n)]
    basis = EchelonBasis(f, n * n)
    basis.add(powers[0].flatten())
    while True:
        nxt = powers[-1] @ mat
        flat = nxt.flatten()
        if not basis.add(flat):
            cols = Matrix.from_columns(f, [p.flatten() for p in powers])
            sol = solve(cols, Matrix._trusted(f, tuple((x,) for x in flat), 1))
            if sol is None:
                raise InternalInconsistency("dependent power with no expression")
            coeffs = [f.neg(sol.entries[i][0]) for i in range(len(powers))]
            coeffs.append(f.one)
            return coeffs
        powers.append(nxt)


def rational_eigenvalues(mat: Matrix) -> list:
    """The rational eigenvalues of a matrix over the rationals, ascending.

    Every value returned is an eigenvalue.  Scaled by the common
    denominator to an integer matrix A, whose rational eigenvalues are
    integers r with |r| at most the largest row sum of |A|.  For a prime q,
    r mod q is a root of A's minimal polynomial over GF(q), because a
    primitive integer eigenvector stays nonzero mod q.  The roots mod the
    RESIDUE_PRIMES are combined by the Chinese remainder theorem until the
    modulus exceeds twice that bound; each combination names one candidate,
    kept when |r| is within the bound and A - rI is singular.  More than
    SAMPLES combinations still short of the modulus end the search with no
    values, which only ever costs conclusiveness.
    """
    f = mat.field
    if f.p != 0:
        raise InvalidInput("rational eigenvalue search is for the rationals")
    den = lcm(*(x.denominator for row in mat.entries for x in row))
    rows = [[int(x * den) for x in row] for row in mat.entries]
    bound = max((sum(map(abs, row)) for row in rows), default=0)
    residues, modulus = [0], 1
    primes = iter(RESIDUE_PRIMES)
    while modulus <= 2 * bound:
        q = next(primes, None)
        if q is None or len(residues) > SAMPLES:
            return []
        evals = [0] * q  # the minimal polynomial mod q at every x, by Horner
        for c in reversed(minimal_polynomial(Matrix(Field(q), rows))):
            evals = [(v * x + c) % q for x, v in enumerate(evals)]
        roots = [x for x, v in enumerate(evals) if not v]
        step = pow(modulus, -1, q)
        residues = [r + modulus * ((s - r) * step % q) for r in residues for s in roots]
        modulus *= q
    values = []
    for r in sorted(r - modulus if 2 * r > modulus else r for r in residues):
        shifted = [
            [x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)
        ]
        if abs(r) <= bound and nullspace(Matrix(f, shifted)).dim > 0:
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
    zero, one, submul = f.zero, f.one, f.submul
    rows = []
    for opa, opb in zip(a.ops, b.ops):
        # phi opa = opb phi, unknowns phi[r][k] flattened row-major: entry
        # (r, c) is sum_k phi[r][k] opa[k][c] - sum_k opb[r][k] phi[k][c]
        opa_cols = tuple(zip(*opa.entries))
        for r in range(mb):
            for c in range(ma):
                left = [zero] * n
                left[r * ma : (r + 1) * ma] = opa_cols[c]
                right = [zero] * n
                right[c::ma] = opb.entries[r]
                rows.append(tuple(submul(left, one, right)))
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
    """
    rows = Matrix.identity(field, len(mats)).entries
    candidates, exhausted = span_candidates(field, rows, rng, SAMPLES, budget)
    if not mats or mats[0].rows != mats[0].cols:
        return None, exhausted
    flats = [m.flatten() for m in mats]
    for coeffs in candidates:
        cand = Matrix._unflatten(field, tuple(field.combine(coeffs, flats)), mats[0].cols)
        if nullspace(cand).dim == 0:
            return coeffs, exhausted
    return None, exhausted


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
