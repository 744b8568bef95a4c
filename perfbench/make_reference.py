#!/usr/bin/env python3
"""Write reference.json: the expected exit code of every benchmark job.

The table is not a recording of what `gradedrings check` prints.  Each
entry comes from one of two routes that share no code with the package's
analysis:

- `brute`: a definition-level check written here, on the structure
  constants of the algebra file, by enumerating elements over GF(p).
  Used for the corpus and, where the enumeration is small, the ladders.
- `theory`: a standard fact about the instance family, cited in THEORY.
  Used for the ladders, and checked against `brute` wherever both exist.

`controlled` rests on the characterization (every component a simple
R_e-bimodule, no two isomorphic).  On the corpus it is also checked here
against the package's definition-level `controlled_oracle`, and simple,
graded-simple and the ideal lattice against `ideal_oracle`; the benchmark
repeats those four comparisons on every pass.

Exit codes follow the command line contract: 0 holds, 1 fails, 2 refused
(`picard-injective` on an algebra that is not strongly graded,
`crossed-controlled` without crossed-product structure, `subrings` on an
algebra that is not controlled and strongly graded).

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py            # rewrite the table
    python3 perfbench/make_reference.py --check    # compare, exit 1 on a diff
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402

# Enumerating all of R (simple, graded ideals) is done up to this many elements.
RING_ENUMERATION_CAP = 20000

_ALL_HOLD = {p: 0 for p in jobs.PROPERTIES}

THEORY = {
    "galois-skew": (
        "GF(p^n)*Z/n under Frobenius is a crossed product with outer action, "
        "isomorphic to M_n(GF(p)): simple, strongly graded, centralizer of R_e "
        "is R_e, components pairwise non-isomorphic, so controlled with the "
        "subgroup correspondence (tests/test_acceptance.py criterion 4)",
        dict(_ALL_HOLD),
    ),
    "m3": (
        "M_3 with the checkerboard Z/2-grading: valid, strongly graded, simple, "
        "graded-simple, centralizer condition holds, not controlled "
        "(tests/test_acceptance.py criterion 1); R_0 = M_2 x F is not a simple "
        "bimodule so `necessary` fails; odd elements have rank <= 2, so no unit "
        "in R_1 and crossed-controlled is refused; dims 5 != 4 give an injective "
        "class map; not controlled, so subrings is refused",
        dict(_ALL_HOLD, controlled=1, necessary=1, **{
            "crossed-product": 1, "crossed-controlled": 2, "subrings": 2}),
    ),
    "group-algebra-q": (
        "Q[G] graded by G: each component is spanned by a unit, so strongly "
        "graded, nondegenerate, graded-simple and a crossed product; the "
        "augmentation ideal makes it not simple; all components are the same "
        "Q-bimodule, so not controlled, not Picard-injective, and G centralizes "
        "R_e = Q, so the centralizer condition and `necessary` fail",
        dict(_ALL_HOLD, simple=1, controlled=1, centralizer=1, necessary=1, **{
            "picard-injective": 1, "crossed-controlled": 1, "subrings": 2}),
    ),
    "matrix": (
        "M_n over Q on the trivial group: simple, and a trivial grading is "
        "controlled exactly when the ring is simple; R = R_e contains the unit, "
        "so every property holds and subrings lists the single subgroup",
        dict(_ALL_HOLD),
    ),
}

LADDER_FAMILY = {
    "galois-2-4": "galois-skew",
    "galois-2-6": "galois-skew",
    "galois-3-3": "galois-skew",
    "m3-gf2": "m3",
    "m3-gf3": "m3",
    "m3-q": "m3",
    "mat3-q": "matrix",
    "mat4-q": "matrix",
    "mat5-q": "matrix",
    "q-z3": "group-algebra-q",
}


# --------------------------------------------------------------------------
# linear algebra over GF(p), on tuples of ints
# --------------------------------------------------------------------------


class Span:
    """Row-echelon span of vectors over GF(p)."""

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.rows = {}  # pivot column -> row with 1 at the pivot

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> list:
        p = self.p
        v = [x % p for x in v]
        for c, row in self.rows.items():
            if v[c]:
                f = v[c]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return v

    def add(self, v) -> bool:
        v = self.reduce(v)
        for c, x in enumerate(v):
            if x:
                inv = pow(x, self.p - 2, self.p)
                row = [(a * inv) % self.p for a in v]
                for k, other in self.rows.items():
                    if other[c]:
                        f = other[c]
                        self.rows[k] = [(a - f * b) % self.p for a, b in zip(other, row)]
                self.rows[c] = row
                return True
        return False

    def contains(self, v) -> bool:
        return not any(self.reduce(v))


def rank(p: int, n: int, vectors) -> int:
    s = Span(p, n)
    for v in vectors:
        s.add(v)
    return s.dim


def nullspace(p: int, n: int, equations) -> list:
    """Basis of {x : e.x = 0 for every equation e}."""
    s = Span(p, n)
    for e in equations:
        s.add(e)
    free = [c for c in range(n) if c not in s.rows]
    basis = []
    for f in free:
        x = [0] * n
        x[f] = 1
        for c, row in s.rows.items():
            x[c] = (-row[f]) % p
        basis.append(x)
    return basis


def _exit_code(holds: bool) -> int:
    return 0 if holds else 1


# --------------------------------------------------------------------------
# the algebra, from its file format
# --------------------------------------------------------------------------


class Brute:
    """Definition-level checks on one algebra file over GF(p)."""

    def __init__(self, obj: dict):
        if obj["field"].get("type") != "GF":
            raise ValueError("brute force needs a prime field")
        self.p = p = obj["field"]["p"]
        names = obj["group"]["names"]
        self.table = obj["group"]["table"]
        self.order = len(names)
        self.dims = [obj["components"][name] for name in names]
        self.off = [sum(self.dims[:g]) for g in range(self.order)]
        self.n = n = sum(self.dims)
        self.e = next(
            g for g in range(self.order) if all(self.table[g][h] == h for h in range(self.order))
        )
        self.inv = [
            next(h for h in range(self.order) if self.table[g][h] == self.e)
            for g in range(self.order)
        ]
        self.prod = [[() for _ in range(n)] for _ in range(n)]
        for g, i, h, j, coeffs in obj["structure"]:
            k = self.table[g][h]
            self.prod[self.off[g] + i][self.off[h] + j] = tuple(
                (self.off[k] + t, c % p) for t, c in enumerate(coeffs) if c % p
            )
        unit = [0] * n
        for t, c in enumerate(obj["unit"]):
            unit[self.off[self.e] + t] = c % p
        self.one = tuple(unit)

    # --- elements ---------------------------------------------------------

    def basis(self, g: int) -> list:
        out = []
        for i in range(self.dims[g]):
            v = [0] * self.n
            v[self.off[g] + i] = 1
            out.append(tuple(v))
        return out

    def all_basis(self) -> list:
        return [b for g in range(self.order) for b in self.basis(g)]

    def mul(self, x, y) -> tuple:
        p = self.p
        out = [0] * self.n
        for a, xa in enumerate(x):
            if not xa:
                continue
            row = self.prod[a]
            for b, yb in enumerate(y):
                if yb:
                    c = xa * yb
                    for k, t in row[b]:
                        out[k] = (out[k] + c * t) % p
        return tuple(out)

    def rays(self, coords) -> list:
        """One nonzero vector per line in the span of the given coordinates."""
        out = []
        for vals in itertools.product(range(self.p), repeat=len(coords)):
            nz = next((x for x in vals if x), 0)
            if nz != 1:
                continue
            v = [0] * self.n
            for c, x in zip(coords, vals):
                v[c] = x
            out.append(tuple(v))
        return out

    def component_rays(self, g: int) -> list:
        return self.rays(range(self.off[g], self.off[g] + self.dims[g]))

    def ring_rays(self) -> list:
        return self.rays(range(self.n))

    # --- closures ---------------------------------------------------------

    def closure(self, seed, lefts, rights, ambient=None) -> Span:
        """Smallest subspace containing seed, closed under x -> l x and x -> x r."""
        span = Span(self.p, self.n)
        full = self.n if ambient is None else ambient
        queue = [seed] if span.add(seed) else []
        while queue and span.dim < full:
            v = queue.pop()
            for w in [self.mul(l, v) for l in lefts] + [self.mul(v, r) for r in rights]:
                if span.add(w):
                    queue.append(w)
        return span

    def ideal(self, x) -> Span:
        b = self.all_basis()
        return self.closure(x, b, b)

    def sub_bimodule(self, x, g: int) -> Span:
        be = self.basis(self.e)
        return self.closure(x, be, be, ambient=self.dims[g])

    def action_matrices(self, g: int):
        """For each R_e basis element b: matrices of v -> b v and v -> v b on R_g."""
        lo, d = self.off[g], self.dims[g]
        out = []
        for b in self.basis(self.e):
            cols_l = [self.mul(b, v)[lo:lo + d] for v in self.basis(g)]
            cols_r = [self.mul(v, b)[lo:lo + d] for v in self.basis(g)]
            out.append((cols_l, cols_r))
        return out

    # --- properties -------------------------------------------------------

    def valid(self) -> bool:
        b = self.all_basis()
        for x in b:
            if self.mul(self.one, x) != x or self.mul(x, self.one) != x:
                return False
        return all(
            self.mul(self.mul(x, y), z) == self.mul(x, self.mul(y, z))
            for x in b for y in b for z in b
        )

    def strong(self) -> bool:
        return all(
            rank(self.p, self.n, [self.mul(x, y) for x in self.basis(g) for y in self.basis(h)])
            == self.dims[self.table[g][h]]
            for g in range(self.order) for h in range(self.order)
        )

    def nondegenerate(self) -> bool:
        for g in range(self.order):
            other = self.basis(self.inv[g])
            for x in self.component_rays(g):
                if not any(any(self.mul(x, y)) for y in other):
                    return False
                if not any(any(self.mul(y, x)) for y in other):
                    return False
        return True

    def is_unit(self, x) -> bool:
        return rank(self.p, self.n, [self.mul(x, b) for b in self.all_basis()]) == self.n

    def crossed_product(self) -> bool:
        return all(
            any(self.is_unit(x) for x in self.component_rays(g)) for g in range(self.order)
        )

    def centralizer(self) -> bool:
        be = self.basis(self.e)
        return not any(
            all(self.mul(b, x) == self.mul(x, b) for b in be)
            for g in range(self.order) if g != self.e
            for x in self.component_rays(g)
        )

    def graded_simple(self) -> bool:
        return all(
            self.ideal(x).dim == self.n
            for g in range(self.order) for x in self.component_rays(g)
        )

    def ring_ideals(self):
        """(simple, every ideal graded) from the principal ideal of every element.

        Every ideal is a sum of principal ones, so both facts are decided by
        principal ideals alone.
        """
        simple = graded = True
        seen = set()
        for x in self.ring_rays():
            span = self.ideal(x)
            if span.dim == self.n:
                continue
            simple = False
            key = tuple(sorted(tuple(r) for r in span.rows.values()))
            if key in seen:
                continue
            seen.add(key)
            for row in span.rows.values():
                for g in range(self.order):
                    lo, hi = self.off[g], self.off[g] + self.dims[g]
                    part = [row[k] if lo <= k < hi else 0 for k in range(self.n)]
                    if not span.contains(part):
                        graded = False
        return simple, graded

    def components_simple(self) -> bool:
        return all(
            self.dims[g] > 0
            and all(self.sub_bimodule(x, g).dim == self.dims[g] for x in self.component_rays(g))
            for g in range(self.order)
        )

    def isomorphic(self, g: int, h: int) -> bool:
        """Is there an invertible R_e-bimodule map R_g -> R_h?"""
        d = self.dims[g]
        if d != self.dims[h]:
            return False
        if d == 0:
            return True
        p = self.p
        eqs = []
        # phi (row-major, phi[r][c] at r*d+c) with phi A_g = A_h phi for each
        # acting matrix A, given as its list of columns.
        for (lg, rg), (lh, rh) in zip(self.action_matrices(g), self.action_matrices(h)):
            for ag, ah in ((lg, lh), (rg, rh)):
                for r in range(d):
                    for c in range(d):
                        e = [0] * (d * d)
                        for k in range(d):
                            e[r * d + k] = (e[r * d + k] + ag[c][k]) % p
                            e[k * d + c] = (e[k * d + c] - ah[k][r]) % p
                        eqs.append(e)
        hom = nullspace(p, d * d, eqs)
        for coeffs in itertools.product(range(p), repeat=len(hom)):
            phi = [sum(a * v[k] for a, v in zip(coeffs, hom)) % p for k in range(d * d)]
            if rank(p, d, [phi[r * d:(r + 1) * d] for r in range(d)]) == d:
                return True
        return False

    def pairwise_non_isomorphic(self) -> bool:
        return not any(
            self.isomorphic(g, h)
            for g in range(self.order) for h in range(g + 1, self.order)
        )

    def identity_simple(self) -> bool:
        return all(
            self.sub_bimodule(x, self.e).dim == self.dims[self.e]
            for x in self.component_rays(self.e)
        )

    def exits(self) -> dict:
        """Expected exit code per property; whole-ring facts only under the cap."""
        out = {}
        b = _exit_code
        strong = self.strong()
        crossed = self.crossed_product()
        comps = self.components_simple()
        noniso = self.pairwise_non_isomorphic()
        central = self.centralizer()
        controlled = comps and noniso
        out["valid"] = b(self.valid())
        out["strong"] = b(strong)
        out["nondegenerate"] = b(self.nondegenerate())
        out["graded-simple"] = b(self.graded_simple())
        out["controlled"] = b(controlled)
        out["crossed-product"] = b(crossed)
        out["centralizer"] = b(central)
        out["picard-injective"] = b(noniso) if strong else 2
        out["crossed-controlled"] = b(controlled) if crossed else 2
        out["subrings"] = 0 if controlled and strong else 2
        if self.p ** self.n <= RING_ENUMERATION_CAP:
            simple, graded = self.ring_ideals()
            out["simple"] = b(simple)
            out["necessary"] = b(
                noniso and comps and self.identity_simple() and central and graded
            )
        return out


# --------------------------------------------------------------------------
# the table
# --------------------------------------------------------------------------


def _cross_check_with_oracles(name: str, alg, exits: dict) -> None:
    """The corpus verdicts must match the package's definition-level oracles."""
    from gradedrings.oracle import controlled_oracle, ideal_oracle

    ideals = ideal_oracle(alg)
    proper = [(s, graded) for s, graded in ideals if 0 < s.dim < alg.dim]
    want = {
        "controlled": 0 if controlled_oracle(alg) else 1,
        "simple": 0 if not proper else 1,
        "graded-simple": 0 if not any(graded for _, graded in proper) else 1,
    }
    for prop, code in want.items():
        if exits[prop] != code:
            raise SystemExit(f"{name}/{prop}: brute force {exits[prop]}, oracle {code}")


def build_table() -> dict:
    from gradedrings.corpus import oracle_scale_corpus
    from gradedrings.serialize import algebra_to_obj

    entries = {}
    for inst in oracle_scale_corpus():
        exits = Brute(algebra_to_obj(inst.alg)).exits()
        _cross_check_with_oracles(inst.name, inst.alg, exits)
        for prop in jobs.PROPERTIES:
            entries[f"{inst.name}/{prop}"] = {"exit": exits[prop], "source": "brute"}
        for target in jobs.ORACLE_TARGETS:
            code = exits["controlled"] if target == "controlled" else 0
            entries[f"{inst.name}/oracle-{target}"] = {"exit": code, "source": "brute"}

    ladder = jobs.build_instances(LADDER_FAMILY)
    for name, family in LADDER_FAMILY.items():
        _, exits = THEORY[family]
        alg = ladder[name]
        if alg.field.p:
            for prop, code in Brute(algebra_to_obj(alg)).exits().items():
                if exits[prop] != code:
                    raise SystemExit(f"{name}/{prop}: theory {exits[prop]}, brute force {code}")
        for prop in jobs.PROPERTIES:
            entries[f"{name}/{prop}"] = {"exit": exits[prop], "source": f"theory:{family}"}

    return {
        "about": "Expected exit code of every benchmark job, written by "
        "perfbench/make_reference.py; source names the route that derived it.",
        "theory": {family: text for family, (text, _) in THEORY.items()},
        "jobs": dict(sorted(entries.items())),
    }


def render(table: dict) -> str:
    """JSON text with one line per job, so that diffs show single entries."""
    head = {k: v for k, v in table.items() if k != "jobs"}
    lines = [json.dumps(head, indent=1, sort_keys=True)[:-2] + ",", ' "jobs": {']
    items = list(table["jobs"].items())
    for i, (key, entry) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}{comma}")
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="compare with the committed table")
    args = ap.parse_args(argv)
    text = render(build_table())
    if args.check:
        with open(jobs.REFERENCE_PATH, "r", encoding="utf-8") as fh:
            same = fh.read() == text
        print("reference.json is up to date" if same else "reference.json differs")
        return 0 if same else 1
    with open(jobs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {jobs.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
