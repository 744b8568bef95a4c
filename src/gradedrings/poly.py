"""Polynomials over GF(p), and minimal and characteristic polynomials of
matrices.

A polynomial over GF(p) is a dense little-endian list of ints in
range(p): [c_0, c_1, ..., c_k] is c_0 + c_1 x + ... + c_k x^k, with no
trailing zero.  Irreducibility is tested by Ben-Or's criterion (1981; the
gcd form of Rabin's 1980 test): a monic f of degree n is irreducible
exactly when gcd(x^(p^i) - x, f) = 1 for i = 1, ..., n // 2, since every
factor of x^(p^i) - x has degree dividing i and a reducible f has a factor
of degree at most n // 2.  The one test serves `lowest_irreducible`, which
picks the moduli of the finite-field builders, and the
`irreducible-element` and `field-commutant` certificates of
`bimodule.is_simple`.  The same gcd with x^p - x gives the roots in GF(p)
(`roots_mod`, Rabin's root finding) by powers mod f of O(n^2 log p)
operations each, where a sweep of GF(p) takes O(n p); with
`characteristic_polynomial` of an integer matrix mod p, it gives
`bimodule.rational_eigenvalues` the residues of the eigenvalues.
"""
from __future__ import annotations

from typing import Sequence

from .errors import InvalidInput
from .linalg import EchelonBasis, Matrix


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mod(p: int, a: Sequence[int], m: Sequence[int]) -> list:
    """a mod m for monic m; a may hold any ints, reduced mod p once at the end."""
    r = list(a)
    dm = len(m) - 1
    while len(r) > dm:
        lead = r.pop() % p
        if lead:
            low = len(r) - dm
            for i in range(dm):
                r[low + i] -= lead * m[i]
    return _trim([c % p for c in r])


def _mulmod(p: int, a: Sequence[int], b: Sequence[int], m: Sequence[int]) -> list:
    """a * b mod monic m."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return poly_mod(p, prod, m)


def _powmod(p: int, a: Sequence[int], e: int, m: Sequence[int]) -> list:
    """a^e mod monic m of positive degree, by square and multiply."""
    acc, base = [1], list(a)
    while e:
        if e & 1:
            acc = _mulmod(p, acc, base, m)
        e >>= 1
        if e:
            base = _mulmod(p, base, base, m)
    return acc


def _gcd(p: int, a: Sequence[int], b: Sequence[int]) -> list:
    """The monic gcd of a and b ([] when both are 0)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, poly_mod(p, a, b)
    return a


def _exact_quotient(p: int, a: Sequence[int], m: Sequence[int]) -> list:
    """a / m for monic m that divides a."""
    r, quo = list(a), [0] * (len(a) - len(m) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = r[k + len(m) - 1]
        if c:
            for i, x in enumerate(m):
                r[k + i] = (r[k + i] - c * x) % p
    return quo


def roots_mod(p: int, f: Sequence[int]) -> list:
    """The distinct roots in GF(p) of a nonzero f, ascending.

    g = gcd(f, x^p - x) is the product of x - r over the roots r.  The
    root 0 is split off as the factor x.  The other roots r of a factor
    divide (x + a)^((p-1)/2) - 1 exactly when r + a is a nonzero square,
    and for two of them some a in 1, ..., p - 1 tells them apart, so the
    gcd with it splits every factor of degree 2 or more for some a (Rabin,
    1980, with the a taken in turn instead of at random).  An a that
    leaves a factor whole leaves its divisors whole, so the a go on
    increasing from factor to factor.
    """
    f = _trim([c % p for c in f])
    if len(f) < 2:
        return []
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    h = _powmod(p, [0, 1], p, f) + [0, 0]
    h[1] -= 1
    g = _gcd(p, f, [c % p for c in h])
    roots, parts, a = [], [g], 0
    if g[0] == 0:
        roots, parts = [0], [g[1:]]
    while parts:
        g = parts.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            a += 1
            h = _powmod(p, [a % p, 1], (p - 1) // 2, g)
            d = _gcd(p, g, [(h[0] - 1) % p] + h[1:])
            parts += [d, _exact_quotient(p, g, d)] if 1 < len(d) < len(g) else [g]
    return sorted(roots)


def characteristic_polynomial(p: int, rows: Sequence[Sequence[int]]) -> list:
    """det(xI - A) mod p of a square matrix A of ints, monic of degree n.

    A is brought mod p to upper Hessenberg form H by similarity transforms
    (row i -= u row k together with column k += u column i), and the
    polynomial of each leading k x k block of H follows from those of the
    smaller blocks by expanding along its last column (Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, Algorithm 2.2.9).  Its
    roots in GF(p) are those of the minimal polynomial of A mod p, which
    has the same irreducible factors.
    """
    h = [[x % p for x in row] for row in rows]
    n = len(h)
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        hk, inv = h[k], pow(h[k][k - 1], -1, p)
        for i in range(k + 1, n):
            u = h[i][k - 1] * inv % p
            if u:
                h[i] = [(a - u * b) % p for a, b in zip(h[i], hk)]
                for row in h:
                    row[k] = (row[k] + u * row[i]) % p
    polys = [[1]]
    for k in range(n):
        prev = polys[-1]
        cur = [0] + prev
        for j, c in enumerate(prev):
            cur[j] -= h[k][k] * c
        t = 1
        for i in range(k, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            coef = t * h[i - 1][k] % p
            if coef:
                for j, c in enumerate(polys[i - 1]):
                    cur[j] -= coef * c
        polys.append([c % p for c in cur])
    return polys[-1]


def is_irreducible(p: int, f: Sequence[int]) -> bool:
    """Whether monic f of positive degree is irreducible over GF(p) (Ben-Or)."""
    n = len(f) - 1
    if n <= 0:
        return False
    h = [0, 1]  # x^(p^i) mod f, starting from i = 0
    for _ in range(n // 2):
        h = _powmod(p, h, p, f)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_gcd(p, f, diff)) > 1:
            return False
    return True


def lowest_irreducible(p: int, n: int) -> list:
    """The first monic irreducible of degree n over GF(p), in the order
    given by reading the non-leading coefficients as a base-p integer."""
    if n < 1:
        raise InvalidInput(f"no irreducible of degree {n} over GF({p})")
    candidates = ([k // p**i % p for i in range(n)] + [1] for k in range(p**n))
    return next(f for f in candidates if is_irreducible(p, f))


def minimal_polynomial(mat: Matrix) -> list:
    """Coefficients [c_0, ..., c_k] of the monic minimal polynomial.

    The flattened powers I, A, A^2, ... are eliminated in turn, power k
    with a 1 in an extra column of its own, so the first power that
    reduces to 0 on the flat columns leaves in the extra columns the
    relation sum_i c_i A^i = 0 with c_k = 1 (by Cayley-Hamilton, k <= n)."""
    f = mat.field
    n = mat.shape[0]
    if n == 0:
        return [f.one]
    width = n * n
    basis = EchelonBasis(f, width + n + 1)
    k, power = 0, Matrix.identity(f, n)
    while True:
        row = {i: x for i, x in enumerate(power.flatten()) if x}
        row[width + k] = f.one
        row = basis._reduce(row)
        if min(row) >= width:
            return [row.get(width + i, f.zero) for i in range(k + 1)]
        basis._insert_sparse(row)
        k, power = k + 1, power @ mat
