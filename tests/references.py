"""Reference computations and helpers shared by the tests.

`product_coeffs`, `component_product` and `verify_crossed_reconstruction`
recompute from the raw product table or from element products what the
package computes from operators, `matrix_product` recomputes a matrix
product one entry at a time, `textbook_rref` eliminates one scalar at a
time, `reference_envelope` is the envelope by dense products and that
elimination, `reference_is_simple` runs the simplicity certificates with
no `irreducible-element` test after the quick Norton trials, and
`reference_enumerate_subspaces` lists every subspace by filling one RREF
at a time, `reference_algebra_from_obj` loads an algebra document in two
passes (the rows checked and decoded string by string, then handed to the
constructor as a dict), `reference_characteristic_polynomial` is the
integer characteristic polynomial by the Faddeev-LeVerrier recurrence,
`reference_rational_eigenvalues` tries every integer within the row-sum
bound as an eigenvalue, and `reference_validate_algebra` checks the unit
laws and associativity by `Element` products, and
`reference_left_matrix`/`reference_right_matrix` build the operator of an
element from one `Element` product per basis vector; the rest are small
helpers, among them `field_add`, `matrix_scale` and `flat_basis`.  The
package itself never calls any of them.
"""
import itertools
import random
from fractions import Fraction
from math import gcd
from itertools import repeat
from typing import Optional

from gradedrings.algebra import AlgebraDiagnostics, Element, GradedAlgebra, GradedSubspace
from gradedrings.bimodule import (
    QUICK_TRIALS,
    SAMPLES,
    BimoduleAction,
    SimplicityReport,
    Verdict,
    _exhaustive_spin,
    _field_commutant,
    _norton_trials,
    _random_envelope_element,
    _sampled_envelope_element,
    envelope,
    rational_eigenvalues,
)
from gradedrings.errors import InvalidInput
from gradedrings.groups import FiniteGroup
from gradedrings.linalg import EchelonBasis, Field, Matrix, Subspace, annihilator, nullspace
from gradedrings.serialize import MAX_TOTAL_DIM, _field_from_obj


def product_coeffs(alg, g: int, i: int, h: int, j: int) -> tuple:
    """Coefficients of b_{g,i} * b_{h,j} in the basis of R_{gh}, read from the table."""
    prod = alg._table[alg.offsets[g] + i].get(alg.offsets[h] + j, {})
    return alg._component(prod, alg.group.table[g][h])


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
                xu = alg.element({g: u})
                for v in th.basis.entries:
                    prod = xu * alg.element({h: v})
                    acc.add(prod.coeffs(k))
    return GradedSubspace(alg, {k: acc.to_subspace() for k, acc in accs.items() if acc.rank})


def field_add(field: Field, a, b):
    """a + b for canonical scalars of field."""
    return (a + b) % field.p if field.p else a + b


def matrix_scale(m: Matrix, c) -> Matrix:
    """c times m, c checked by `Field.coerce`."""
    f = m.field
    c = f.coerce(c)
    return Matrix._trusted(f, tuple(tuple(f.mul(c, x) for x in r) for r in m.entries), m.cols)


def flat_basis(alg: GradedAlgebra) -> list:
    """The basis elements in flat order."""
    one = alg.field.one
    return [Element(alg, {k: one}) for k in range(alg.dim)]


def _columns_matrix(alg: GradedAlgebra, columns) -> Matrix:
    """The n x n matrix whose column b is the flattening of the Element columns[b]."""
    return Matrix.from_columns(alg.field, [alg.flatten(x) for x in columns])


def reference_left_matrix(x: Element) -> Matrix:
    """v -> x v on the flattened algebra: column b is the Element product x b_b."""
    return _columns_matrix(x.alg, [x * b for b in flat_basis(x.alg)])


def reference_right_matrix(x: Element) -> Matrix:
    """v -> v x on the flattened algebra: column b is the Element product b_b x."""
    return _columns_matrix(x.alg, [b * x for b in flat_basis(x.alg)])


def matrix_product(a, b) -> tuple:
    """The entries of a @ b, each a sum of scalar products by `field_add`/`Field.mul`."""
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            x = f.zero
            for k in range(a.cols):
                x = field_add(f, x, f.mul(a.entries[i][k], b.entries[k][j]))
            row.append(x)
        out.append(tuple(row))
    return tuple(out)


def textbook_rref(field, rows):
    """Gauss-Jordan elimination one scalar at a time, as an independent reference.

    Returns (the rows in reduced row-echelon form, zero rows last, and the
    rank)."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def reference_characteristic_polynomial(rows) -> list:
    """det(xI - A) of a square matrix A of ints, as little-endian ints.

    The Faddeev-LeVerrier recurrence: M_1 = I, c_(n-k) = -tr(A M_k) / k
    and M_(k+1) = A M_k + c_(n-k) I, every division exact over the
    integers.  No elimination and no modulus is involved.
    """
    n = len(rows)
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in rows]
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) // k
        m = [[x + coeffs[n - k] * (i == j) for j, x in enumerate(r)] for i, r in enumerate(am)]
    return coeffs


def reference_rational_eigenvalues(mat: Matrix) -> list:
    """`bimodule.rational_eigenvalues` by trying every candidate.

    mat is scaled by the common denominator den to an integer matrix A,
    and every integer r with |r| at most the largest row sum of |A| is
    tried: r / den is kept when A - rI is singular over Q, that is when
    det(rI - A), the characteristic polynomial of A at r, is 0.  The
    polynomial comes from `reference_characteristic_polynomial` and is
    evaluated at a block of r at a time by Horner's rule.
    """
    den = 1
    for row in mat.entries:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    rows = [[int(x * den) for x in row] for row in mat.entries]
    bound = max((sum(abs(x) for x in row) for row in rows), default=0)
    chi = reference_characteristic_polynomial(rows)
    values = []
    for start in range(-bound, bound + 1, 1 << 16):
        xs = range(start, min(start + (1 << 16), bound + 1))
        vals = [0] * len(xs)
        for c in reversed(chi):
            vals = [v * x + c for v, x in zip(vals, xs)]
        values += [Fraction(x, den) for x, v in zip(xs, vals) if not v]
    return values


def reference_envelope(action: BimoduleAction):
    """`bimodule.envelope` by dense products and textbook elimination.

    Forms each product L_i R_j with `Matrix.mul` and keeps it when
    `textbook_rref` finds its flattening independent of the products kept
    before it; returns (rank, the products kept, in (i, j) order), stopping
    once the rank is m^2.  No `EchelonBasis` is involved, so the reference
    does not share the kernel it checks.
    """
    n = action.dim * action.dim
    flats, mats = [], []
    for l in action.left_ops:
        for r in action.right_ops:
            prod = l @ r
            if textbook_rref(action.field, flats + [prod.flatten()])[1] > len(flats):
                flats.append(prod.flatten())
                mats.append(prod)
            if len(flats) == n:
                return n, mats
    return len(flats), mats


def reference_is_simple(
    action: BimoduleAction, *, seed: int = 0, budget: int = 65536
) -> SimplicityReport:
    """`bimodule.is_simple` with no `irreducible-element` certificate.

    Over GF(p <= 64) the QUICK_TRIALS Norton trials try only their shifts,
    even where the envelope is a field and no shift can be singular, and
    the envelope is built after them.  The certificate draws nothing from
    rng, so wherever it does not decide, the two give the same report;
    where it does, this one must say TRUE.
    """
    m = action.dim
    f = action.field
    if m == 0:
        raise InvalidInput("simplicity of a zero-dimensional carrier is not defined")
    if m == 1:
        return SimplicityReport(Verdict.TRUE, "dimension")
    rng = random.Random(seed)

    def shifts(theta):
        if not f.p:
            return rational_eigenvalues(theta)
        return range(f.p) if f.p <= 64 else sorted(rng.sample(range(f.p), 16))

    sampled = 0
    if 0 < f.p <= 64:
        thetas = (_sampled_envelope_element(action, rng) for _ in range(QUICK_TRIALS))
        report, sampled = _norton_trials(action, thetas, shifts, rng)
        if report is not None:
            report.trials = sampled
            return report

    rank, env = envelope(action)
    if rank == m * m:
        return SimplicityReport(Verdict.TRUE, "dense-envelope", trials=sampled)

    thetas = (_random_envelope_element(action, env, rng) for _ in range(SAMPLES))
    used = 0
    report = _field_commutant(action, env, seed) if f.p else None
    if report is None and env:
        report, used = _norton_trials(action, thetas, shifts, rng)
    if report is None and not f.p:
        report = _field_commutant(action, env, seed)
    if report is None:
        report = _exhaustive_spin(action, rng, budget)
    report.trials = sampled + used
    return report


def reference_enumerate_subspaces(dim: int, f) -> list:
    """Every subspace of f^dim, one RREF filled at a time and each re-reduced.

    Sorted by (dim, basis entries), the order `oracle.enumerate_subspaces`
    promises.
    """
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
                basis = Matrix._trusted(f, tuple(map(tuple, rows)), dim)
                out.append(Subspace(f, dim, basis))
    out.sort(key=lambda s: (s.dim, s.basis.entries))
    return out


def subset_action(alg, subset) -> BimoduleAction:
    """R_S = direct sum of the components over S, as an R_e-bimodule."""
    lefts, rights = alg.subset_ops(subset)
    names = ",".join(alg.group.names[int(g)] for g in subset)
    return BimoduleAction(alg.field, lefts[0].cols, lefts, rights, tag=f"R_{{{names}}}")


def verify_crossed_reconstruction(alg, data):
    """Rebuild multiplication from (sigma, alpha) and compare with R.

    In the basis b_{e,k} u_g the product must come out as
    (b u_g)(c u_h) = b sigma_g(c) alpha(g,h) u_{gh}.  Returns None when all
    basis products match, else a witness naming the first mismatch.
    """
    G = alg.group
    e = G.identity
    de = alg.comp_dims[e]
    units = {g: alg.element({g: vec}) for g, vec in data.units.items()}
    base_el = lambda k: alg.basis_element(e, k)
    for g in range(G.order):
        for h in range(G.order):
            gh = G.table[g][h]
            alpha_el = alg.element({e: data.alpha[(g, h)]})
            for k in range(de):
                for l in range(de):
                    lhs = (base_el(k) * units[g]) * (base_el(l) * units[h])
                    sig_c = alg.element({e: data.sigma[g].column(l)})
                    rhs = base_el(k) * sig_c * alpha_el * units[gh]
                    if lhs != rhs:
                        return {
                            "pair": [G.names[g], G.names[h]],
                            "basis": [k, l],
                        }
    return None


def is_nilpotent(g) -> bool:
    """Upper central series climb: Z_{i+1} = {x : [x, y] in Z_i for all y}."""
    if g.identity is None or g._inverses is None:
        raise InvalidInput("not a group (no identity or inverses)")
    n = g.order
    t = g.table

    def commutator(x, y):
        return t[t[t[x][y]][g.inv(x)]][g.inv(y)]

    z = {g.identity}
    while True:
        nz = {x for x in range(n) if all(commutator(x, y) in z for y in range(n))}
        if nz == z:
            return len(z) == n
        z = nz


def subspace_intersect(u, v):
    """Intersection via the nullspaces of the stacked constraint systems.

    A subspace equals the solution set of the constraints given by the
    nullspace of its basis, so intersecting means stacking both constraint
    sets and solving again.
    """
    u._check_compatible(v)
    cu = annihilator(u).basis
    cv = annihilator(v).basis
    return nullspace(cu.stack(cv))


def contains_subspace(s, other) -> bool:
    """Does the subspace s contain every basis row of other?"""
    s._check_compatible(other)
    return all(s.contains(r) for r in other.basis.entries)


def vector_from_json(field, vec) -> tuple:
    """A coefficient vector of a report ("num/den" strings over Q), as canonical scalars."""
    if not isinstance(vec, list):
        raise InvalidInput("coefficient vector must be a list")
    return field.vector(Fraction(c) if isinstance(c, str) else c for c in vec)


def _reference_fraction(v: str) -> Fraction:
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational scalar {v!r}") from exc


def _reference_decoded_vector(field: Field, vec) -> list:
    """A coefficient vector, its rational strings decoded one call each."""
    if not isinstance(vec, list):
        raise InvalidInput("coefficient vector must be a list")
    if field.p:
        return vec
    return [_reference_fraction(c) if isinstance(c, str) else c for c in vec]


def reference_algebra_from_obj(obj) -> GradedAlgebra:
    """The two-pass loader: serialize checks and decodes each row, the constructor checks it again."""
    if not isinstance(obj, dict):
        raise InvalidInput("algebra document must be a JSON object")
    try:
        field = _field_from_obj(obj["field"])
        gobj = obj["group"]
        names = gobj["names"]
        table = gobj["table"]
        comps = obj["components"]
        rows = obj["structure"]
        unit = obj["unit"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"algebra document is missing a required entry: {exc}") from exc
    if not isinstance(names, list) or not all(type(x) is str for x in names):
        raise InvalidInput("group names must be a list of strings")
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in table
    ):
        raise InvalidInput("Cayley table must be a list of rows of integer element indices")
    if not isinstance(rows, list):
        raise InvalidInput("structure must be a list of rows")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidInput("meta must be a JSON object")
    group = FiniteGroup(names, table)
    try:
        comp_dims = [comps[name] for name in group.names]
    except (KeyError, TypeError) as exc:
        raise InvalidInput("components must map every group element name to a dimension") from exc
    extra = sorted(set(comps) - set(group.names))
    if extra:
        raise InvalidInput(f"components name {extra[0]!r}, which is no group element")
    for name, d in zip(group.names, comp_dims):
        if type(d) is not int or d < 0:
            raise InvalidInput(
                f"dimension of component {name!r} must be a non-negative integer, got {d!r}"
            )
    if sum(comp_dims) > MAX_TOTAL_DIM:
        raise InvalidInput(
            f"total dimension {sum(comp_dims)} exceeds the limit of {MAX_TOTAL_DIM}"
        )
    structure = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 5):
            raise InvalidInput(f"structure row must be [g, i, h, j, coeffs], got {row!r}")
        g, i, h, j, coeffs = row
        key = (g, i, h, j)
        if not type(g) is type(i) is type(h) is type(j) is int or min(key) < 0:
            raise InvalidInput(f"structure index must be a non-negative integer, got {key!r}")
        if key in structure:
            raise InvalidInput(f"duplicate structure row for {key}")
        structure[key] = _reference_decoded_vector(field, coeffs)
    return GradedAlgebra(
        field,
        group,
        comp_dims,
        structure,
        _reference_decoded_vector(field, unit),
        meta=meta,
    )


def reference_validate_algebra(alg: GradedAlgebra) -> AlgebraDiagnostics:
    """Unit laws, then associativity by the left nucleus, else by the full scan, on Elements.

    Each basis product b*c is read once from the table as an Element, and
    every triple compares (ab)c with a(bc) as two Element products.
    """
    problems = []
    one = alg.one()
    basis = flat_basis(alg)
    for k, b in enumerate(basis):
        if one * b != b or b * one != b:
            g, i = alg.basis_of_flat(k)
            problems.append(f"unit law fails at basis element {alg.label(g, i)}")
            return AlgebraDiagnostics(False, problems)
    prods = [[Element(alg, row.get(j, {})) for j in range(alg.dim)] for row in alg._table]
    gens = _reference_nucleus_generators(alg, basis, prods)
    if gens is not None:
        return AlgebraDiagnostics(True, problems, nucleus_generators=gens)
    return _reference_associativity_scan(alg, basis, prods)


def _reference_associates(a: Element, ab: Element, c: Element, bc: Element) -> bool:
    """(ab)c == a(bc); when ab and bc are both zero, so are both sides."""
    return not (ab.terms or bc.terms) or ab * c == a * bc


def _reference_nucleus_generators(alg: GradedAlgebra, basis: list, prods: list) -> Optional[tuple]:
    span = EchelonBasis(alg.field, alg.dim)
    one = alg.one()
    span.add(alg.flatten(one))
    found = [one]
    gens: list = []
    k = 0
    while not span.is_full():
        while span.contains(alg.flatten(basis[k])):
            k += 1
        a = basis[k]
        for ab, row in zip(prods[k], prods):
            if not all(map(_reference_associates, repeat(a), repeat(ab), basis, row)):
                return None
        gens.append(k)
        acting = tuple(basis[s] for s in gens)
        work = [(x, (a,)) for x in found]
        while work:
            x, by = work.pop()
            for s in by:
                y = s * x
                if span.add(alg.flatten(y)):
                    found.append(y)
                    work.append((y, acting))
    return tuple(gens)


def _reference_associativity_scan(alg: GradedAlgebra, basis: list, prods: list) -> AlgebraDiagnostics:
    for a_i, a in enumerate(basis):
        for b_i, ab in enumerate(prods[a_i]):
            for c_i, (c, bc) in enumerate(zip(basis, prods[b_i])):
                if not _reference_associates(a, ab, c, bc):
                    ga, ia = alg.basis_of_flat(a_i)
                    gb, ib = alg.basis_of_flat(b_i)
                    gc, ic = alg.basis_of_flat(c_i)
                    problem = (
                        "associativity fails at "
                        f"({alg.label(ga, ia)}, {alg.label(gb, ib)}, {alg.label(gc, ic)})"
                    )
                    return AlgebraDiagnostics(False, [problem], witness=(a_i, b_i, c_i))
    return AlgebraDiagnostics(True, [])
