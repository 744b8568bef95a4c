"""Polynomials over GF(p) and minimal polynomials of matrices.

A polynomial over GF(p) is a dense little-endian list of ints in
range(p): [c_0, c_1, ..., c_k] is c_0 + c_1 x + ... + c_k x^k, with no
trailing zero.  Irreducibility is tested by Ben-Or's criterion (1981; the
gcd form of Rabin's 1980 test): a monic f of degree n is irreducible
exactly when gcd(x^(p^i) - x, f) = 1 for i = 1, ..., n // 2, since every
factor of x^(p^i) - x has degree dividing i and a reducible f has a factor
of degree at most n // 2.  The one test serves `lowest_irreducible`, which
picks the moduli of the finite-field builders, and the
`irreducible-element` and `field-commutant` certificates of
`bimodule.is_simple`.
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
    """a mod m for monic m."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, c in enumerate(m):
                if c:
                    r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return _trim(r)


def _mulmod(p: int, a: Sequence[int], b: Sequence[int], m: Sequence[int]) -> list:
    """a * b mod monic m."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return poly_mod(p, [c % p for c in prod], m)


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
