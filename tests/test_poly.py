"""Polynomials over GF(p): Ben-Or's irreducibility test, roots, and minimal
and characteristic polynomials."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.linalg import GF, RATIONALS, Matrix
from gradedrings.poly import (
    _powmod,
    characteristic_polynomial,
    is_irreducible,
    lowest_irreducible,
    minimal_polynomial,
    poly_mod,
    roots_mod,
)
from references import reference_characteristic_polynomial, textbook_rref


def _divides(p, g, f):
    """Whether monic g divides f over GF(p), by schoolbook long division."""
    r = list(f)
    for shift in range(len(f) - len(g), -1, -1):
        lead = r[shift + len(g) - 1]
        for i, c in enumerate(g):
            r[shift + i] = (r[shift + i] - lead * c) % p
    return not any(r)


def _irreducible_by_trial_division(p, f):
    """f has no monic factor of degree 1 .. deg f // 2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if _divides(p, list(tail) + [1], f):
                return False
    return True


def _lowest_by_trial_division(p, n):
    for k in range(p**n):
        f = [(k // p**i) % p for i in range(n)] + [1]
        if (n == 1 or k) and _irreducible_by_trial_division(p, f):
            return f


CASES = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 12) if p**n <= 5**5]


@pytest.mark.parametrize("p,n", CASES, ids=[f"GF({p})-deg{n}" for p, n in CASES])
def test_lowest_irreducible_matches_trial_division(p, n):
    assert lowest_irreducible(p, n) == _lowest_by_trial_division(p, n)


@pytest.mark.parametrize("p,max_deg", [(2, 7), (3, 5), (5, 3), (7, 3)])
def test_is_irreducible_matches_trial_division(p, max_deg):
    for n in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=n):
            f = list(tail) + [1]
            assert is_irreducible(p, f) is _irreducible_by_trial_division(p, f), f


def test_is_irreducible_catches_squares_and_linear_factors():
    # (x^2 + x + 1)^2 has no root over GF(2) but a factor of degree n/2
    assert not is_irreducible(2, [1, 0, 1, 0, 1])
    assert not is_irreducible(65521, [0, 1, 0, 1])  # x^3 + x
    # x^2 - a over GF(65521) is irreducible exactly when a is no square
    for a in range(2, 20):
        square = pow(a, 65520 // 2, 65521) == 1
        assert is_irreducible(65521, [65521 - a, 0, 1]) is not square
    assert not is_irreducible(5, [1])


def test_poly_mod_reduces_by_a_monic_modulus():
    # x^4 mod x^2 + x + 1 over GF(2) is x
    assert poly_mod(2, [0, 0, 0, 0, 1], [1, 1, 1]) == [0, 1]
    assert poly_mod(3, [1, 2], [0, 0, 1]) == [1, 2]


@pytest.mark.parametrize("p,modulus", [(2, [1, 1, 1]), (3, [2, 2, 0, 1]), (7, [0, 1])])
def test_powmod_matches_reduction_of_the_full_power(p, modulus):
    for a in ([], [1], [0, 1], [1, 1], [p - 1, 0, 1, 1]):
        for e in range(3 * p + 2):
            full = [1]
            for _ in range(e):
                full = [
                    sum(full[i] * a[k - i] for i in range(len(full)) if 0 <= k - i < len(a)) % p
                    for k in range(len(full) + len(a) - 1)
                ]
            assert _powmod(p, a, e, modulus) == poly_mod(p, full, modulus)


def test_minimal_polynomial_over_both_fields():
    # a rotation by a quarter turn: x^2 + 1
    assert minimal_polynomial(Matrix(RATIONALS, [[0, -1], [1, 0]])) == [1, 0, 1]
    # the identity: x - 1, over GF(5) as 4 + x
    assert minimal_polynomial(Matrix.identity(GF(5), 3)) == [4, 1]
    jordan = Matrix(GF(3), [[2, 1], [0, 2]])
    assert minimal_polynomial(jordan) == [1, 2, 1]  # (x - 2)^2 = x^2 + 2x + 1


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([GF(2), GF(3), GF(67), GF(1009), GF(65521), RATIONALS]),
    st.integers(1, 5),
    st.sampled_from([0, 0.2, 1]),
    st.integers(0, 2**30 - 1),
)
def test_minimal_polynomial_is_the_least_monic_annihilator(field, n, density, seed):
    # sum c_i A^i = 0 with c_k = 1, and I, A, ..., A^(k-1) independent by
    # textbook elimination, so no monic polynomial of lower degree kills A
    rng = random.Random(seed)
    entry = lambda: field.random_scalar(rng) if rng.random() < density else 0
    mat = Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])
    coeffs = minimal_polynomial(mat)
    k = len(coeffs) - 1
    assert k >= 1 and coeffs[-1] == field.one
    powers = [Matrix.identity(field, n)]
    for _ in range(k):
        powers.append(powers[-1] @ mat)
    flats = [m.flatten() for m in powers]
    assert not any(field.combine(coeffs, flats))
    assert textbook_rref(field, flats[:k])[1] == k
    p = field.p
    if not p:
        return
    # what `bimodule.is_simple` reads from the characteristic polynomial
    # chi: it is irreducible exactly when the minimal polynomial is
    # irreducible of degree n, and its roots are the singular shifts
    chi = characteristic_polynomial(p, mat.entries)
    assert is_irreducible(p, chi) is (k == n and is_irreducible(p, coeffs))
    if p <= 67:
        rows = mat.entries
        shift = lambda lam: [
            [(x - lam * (i == j)) % p for j, x in enumerate(r)] for i, r in enumerate(rows)
        ]
        singular = [lam for lam in range(p) if textbook_rref(field, shift(lam))[1] < n]
        assert roots_mod(p, chi) == singular


def _times(p, f, g):
    return [
        sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) % p
        for k in range(len(f) + len(g) - 1)
    ]


def _value(p, f, x):
    return sum(c * pow(x, i, p) for i, c in enumerate(f)) % p


def _seeded_polynomial(p, rng):
    """A nonzero polynomial of degree 0-12 over GF(p), half of them random
    and half products of linear factors (repeated ones and x among them),
    a factor with no root, and a nonzero scalar."""
    if rng.random() < 0.5:
        return [rng.randrange(p) for _ in range(rng.randint(0, 12))] + [rng.randrange(1, p)]
    f = [rng.randrange(1, p)]
    if rng.random() < 0.5:
        f = _times(p, f, lowest_irreducible(p, rng.randint(2, 3)))
    while len(f) < 13 and rng.random() < 0.8:
        r = rng.choice([0, rng.randrange(p)])
        for _ in range(rng.randint(1, 3)):
            if len(f) < 13:
                f = _times(p, f, [-r % p, 1])
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 1009, 1013])
def test_roots_mod_matches_evaluation_at_every_point(p):
    rng = random.Random(p)
    for _ in range(60):
        f = _seeded_polynomial(p, rng)
        assert roots_mod(p, f) == [x for x in range(p) if not _value(p, f, x)], f


def test_roots_mod_on_repeated_zero_and_missing_roots():
    p = 1009
    assert roots_mod(p, [7]) == []
    assert roots_mod(p, [0, 0, 0, 5]) == [0]  # 5x^3
    no_root = lowest_irreducible(p, 2)
    assert roots_mod(p, no_root) == roots_mod(p, _times(p, no_root, no_root)) == []
    f = no_root
    for r, k in ((2, 3), (0, 2), (p - 1, 1)):
        for _ in range(k):
            f = _times(p, f, [-r % p, 1])
    assert roots_mod(p, f) == [0, 2, p - 1]
    # x^2 + x over GF(2) has both points as roots, x^2 + x + 1 neither
    assert roots_mod(2, [0, 1, 1]) == [0, 1] and roots_mod(2, [1, 1, 1]) == []


@pytest.mark.parametrize("p", [2, 3, 5, 1009])
def test_characteristic_polynomial_of_seeded_integer_matrices(p):
    # monic of degree n, equal mod p to the integer characteristic polynomial
    # by Faddeev-LeVerrier, divisible by the minimal polynomial mod p, and
    # with the same roots in GF(p)
    rng = random.Random(p)
    for n in range(9):
        for _ in range(4):
            density = rng.choice([0.2, 0.6, 1])
            rows = [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)
            ]
            chi = characteristic_polynomial(p, rows)
            assert len(chi) == n + 1 and chi[-1] == 1
            assert chi == [c % p for c in reference_characteristic_polynomial(rows)]
            mu = minimal_polynomial(Matrix(GF(p), rows))
            assert _divides(p, mu, chi), rows
            assert roots_mod(p, chi) == roots_mod(p, mu), rows
