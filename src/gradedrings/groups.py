"""Finite groups given by Cayley tables.

Elements are indices 0..n-1 into a name list; table[i][j] is the index of the
product of element i with element j.  Construction tolerates broken tables
(validate_group reports what is wrong), but operations that need an identity
or inverses refuse to run on them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional, Sequence

from .errors import BudgetError, InvalidInput

SUBSET_SCAN_LIMIT = 16


class FiniteGroup:
    __slots__ = ("names", "table", "identity", "_inverses")

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]):
        names = tuple(str(x) for x in names)
        n = len(names)
        if n == 0:
            raise InvalidInput("a group needs at least one element")
        if len(set(names)) != n:
            raise InvalidInput("element names must be distinct")
        tab = tuple(tuple(int(x) for x in row) for row in table)
        if len(tab) != n or any(len(row) != n for row in tab):
            raise InvalidInput("Cayley table must be n x n")
        if any(x < 0 or x >= n for row in tab for x in row):
            raise InvalidInput("Cayley table entries must be element indices")
        self.names = names
        self.table = tab
        self.identity = self._find_identity()
        self._inverses = self._find_inverses()

    def _find_identity(self) -> Optional[int]:
        n = self.order
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                return e
        return None

    def _find_inverses(self) -> Optional[tuple]:
        e = self.identity
        if e is None:
            return None
        inv = []
        for i in range(self.order):
            j = next(
                (k for k in range(self.order) if self.table[i][k] == e and self.table[k][i] == e),
                None,
            )
            if j is None:
                return None
            inv.append(j)
        return tuple(inv)

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        if self._inverses is None:
            raise InvalidInput("table has no identity/inverses; not a group")
        return self._inverses[i]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.names == other.names
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.names, self.table))

    def __repr__(self):
        return f"FiniteGroup({', '.join(self.names)})"


@dataclass
class GroupDiagnostics:
    ok: bool
    problems: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_group(g: FiniteGroup) -> GroupDiagnostics:
    """Full group-axiom scan: identity, inverses, associativity (O(n^3))."""
    problems = []
    if g.identity is None:
        problems.append("no two-sided identity")
    elif g._inverses is None:
        problems.append("some element has no two-sided inverse")
    n = g.order
    t = g.table
    for a in range(n):
        for b in range(n):
            tab = t[a][b]
            for c in range(n):
                if t[tab][c] != t[a][t[b][c]]:
                    problems.append(
                        f"associativity fails at ({g.names[a]}, {g.names[b]}, {g.names[c]})"
                    )
                    return GroupDiagnostics(False, problems)
    return GroupDiagnostics(not problems, problems)


def _closed_under_product(g: FiniteGroup, subset: tuple) -> bool:
    members = set(subset)
    t = g.table
    return all(t[a][b] in members for a in subset for b in subset)


def subgroups(g: FiniteGroup) -> list:
    """All subgroups, as sorted index tuples, ordered by size then lex.

    Scans the subsets that contain the identity for closure under the
    product alone: in a finite group a product-closed subset containing e
    is a subgroup, since the powers of each x repeat and so contain x^-1.
    """
    if g.identity is None or g._inverses is None:
        raise InvalidInput("not a group (no identity or inverses)")
    if g.order > SUBSET_SCAN_LIMIT:
        raise BudgetError(
            f"subset scan refuses groups of order > {SUBSET_SCAN_LIMIT} (got {g.order})"
        )
    e = g.identity
    rest = [i for i in range(g.order) if i != e]
    found = []
    for mask in range(1 << len(rest)):
        subset = tuple(sorted([e] + [x for k, x in enumerate(rest) if mask >> k & 1]))
        if _closed_under_product(g, subset):
            found.append(subset)
    found.sort(key=lambda s: (len(s), s))
    return found


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidInput("cyclic group needs n >= 1")
    return FiniteGroup(
        [str(i) for i in range(n)], [[(i + j) % n for j in range(n)] for i in range(n)]
    )


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    pairs = [(i, j) for i in range(a.order) for j in range(b.order)]
    names = [f"{a.names[i]}|{b.names[j]}" for i, j in pairs]
    idx = {p: k for k, p in enumerate(pairs)}
    table = [
        [idx[(a.table[i1][i2], b.table[j1][j2])] for (i2, j2) in pairs] for (i1, j1) in pairs
    ]
    return FiniteGroup(names, table)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1 or n > 4:
        raise InvalidInput("symmetric_group supports 1 <= n <= 4")
    perms = sorted(permutations(range(n)))
    # identity is the sorted-first permutation, so index 0
    names = ["".join(str(x) for x in p) for p in perms]
    idx = {p: k for k, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(n))

    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    return FiniteGroup(names, table)
