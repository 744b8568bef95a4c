"""Finite groups: constructors, validation, subgroup scans."""
import pytest

from gradedrings.errors import BudgetError, InvalidInput
from gradedrings.groups import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    klein_four_group,
    subgroups,
    symmetric_group,
    trivial_group,
    validate_group,
)
from references import is_nilpotent


def test_cyclic_table():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.mul(3, 2) == 1
    assert g.inv(3) == 1
    assert validate_group(g).ok


def test_symmetric_group_3():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert validate_group(s3).ok
    # nonabelian: some pair fails to commute
    assert any(
        s3.mul(a, b) != s3.mul(b, a) for a in range(6) for b in range(6)
    )


def test_direct_product_structure():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4
    assert all(v4.mul(g, g) == v4.identity for g in range(4))
    assert klein_four_group().table == v4.table


def test_validate_group_catches_broken_tables():
    # rows are not permutations: not a quasigroup
    bad = FiniteGroup(["a", "b"], [[0, 0], [1, 1]])
    diag = validate_group(bad)
    assert not diag.ok
    assert diag.problems
    # associativity failure with a latin square (non-group loop of order 5)
    loop = FiniteGroup(
        ["0", "1", "2", "3", "4"],
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ],
    )
    assert not validate_group(loop).ok


def test_subgroups_of_z4():
    z4 = cyclic_group(4)
    subs = subgroups(z4)
    assert sorted(len(s) for s in subs) == [1, 2, 4]
    assert (0, 2) in [tuple(sorted(s)) for s in subs]


def test_subgroups_of_v4_and_s3():
    assert sorted(len(s) for s in subgroups(klein_four_group())) == [1, 2, 2, 2, 4]
    assert sorted(len(s) for s in subgroups(symmetric_group(3))) == [1, 2, 2, 2, 3, 6]


def test_subgroups_are_inverse_closed():
    # the scan tests closure under the product only; in a finite group that
    # gives inverses too
    for g in (cyclic_group(4), klein_four_group(), symmetric_group(3), cyclic_group(5)):
        for sub in subgroups(g):
            assert all(g.inv(x) in sub for x in sub)


def test_center_and_nilpotency():
    assert is_nilpotent(cyclic_group(4))
    assert is_nilpotent(klein_four_group())
    assert not is_nilpotent(symmetric_group(3))


def test_subset_scan_budget():
    big = cyclic_group(17)
    with pytest.raises(BudgetError):
        subgroups(big)


def test_bad_constructions():
    with pytest.raises(InvalidInput):
        cyclic_group(0)
    with pytest.raises(InvalidInput):
        symmetric_group(5)
