import itertools

import numpy as np
import pytest

from tcm.errors import CapExceededError
from tcm.galois_image import (
    GaloisMatrix,
    UnitGroup,
    cn_elements,
    cn_order,
    kernel_size,
    max_stabilizer_order,
    squaring_degree_bound,
    verify_homotheties,
)
from tcm.ideal_arith import brute_force_phi
from tcm.quad_core import Splitting, splitting_type

from conftest import GRID_DISCS, oracle_cn_elements, oracle_max_stabilizer_order


def test_cn_sizes_examples():
    assert len(cn_elements(-4, 2)) == 2
    assert len(cn_elements(-7, 5)) == 24
    assert len(cn_elements(-4, 5)) == 16


def test_cn_order_matches_brute_force_grid():
    for d in GRID_DISCS:
        for n in range(2, 41):
            assert cn_order(d, n) == brute_force_phi(d, n), (d, n)


def test_cn_accepts_order_discriminants():
    assert cn_order(-12, 7) == brute_force_phi(-12, 7)


def test_cn_elements_view_matches_set_construction():
    for d in GRID_DISCS:
        for n in range(2, 41):
            group = cn_elements(d, n)
            expected = oracle_cn_elements(d, n)
            assert isinstance(group, UnitGroup)
            assert set(group) == expected, (d, n)
            assert group == expected and len(group) == len(expected), (d, n)


def test_cn_elements_view_order_and_membership():
    group = cn_elements(-4, 6)
    pairs = [(m.alpha, m.beta) for m in group]
    assert pairs == sorted(pairs) and len(pairs) == len(group) == 16
    assert all(m in group for m in group)
    assert GaloisMatrix.identity(-4, 6) in group
    assert GaloisMatrix(disc=-4, modulus=6, alpha=0, beta=0) not in group  # zero
    assert GaloisMatrix(disc=-4, modulus=6, alpha=2, beta=0) not in group  # a zero divisor
    assert GaloisMatrix(disc=-4, modulus=6, alpha=7, beta=0) not in group  # not reduced mod 6
    assert GaloisMatrix(disc=-4, modulus=5, alpha=1, beta=0) not in group  # another modulus
    assert GaloisMatrix(disc=-3, modulus=6, alpha=1, beta=0) not in group  # another disc
    assert (1, 0) not in group
    assert group & set(group) == set(group) and type(group | set()) is set


@pytest.mark.parametrize("d,n", [(-3, 12), (-4, 8), (-7, 9), (-8, 6), (-7, 30)])
def test_group_axioms_exhaustive(d, n):
    elements = sorted(cn_elements(d, n), key=lambda m: (m.alpha, m.beta))
    as_set = set(elements)
    assert GaloisMatrix.identity(d, n) in as_set
    for m1, m2 in itertools.product(elements, elements):
        prod = m1 * m2
        assert prod in as_set
        assert m2 * m1 == prod  # the ring is commutative
        # the recovered pair reproduces the literal matrix product
        e1, e2 = np.array(m1.entries), np.array(m2.entries)
        assert (np.array(prod.entries) == (e1 @ e2) % n).all()


def test_determinant_is_a_unit():
    from math import gcd

    for m in cn_elements(-7, 20):
        assert gcd(m.det(), 20) == 1


@pytest.mark.parametrize("d,n", [(-4, 5), (-3, 9), (-8, 6)])
def test_homotheties_examples(d, n):
    assert verify_homotheties(d, n)


def test_homotheties_grid():
    for d in GRID_DISCS:
        for n in range(2, 41):
            assert verify_homotheties(d, n), (d, n)


def test_kernel_size_examples():
    assert kernel_size(-4, 3, 1, 1) == 9
    assert kernel_size(-7, 2, 1, 2) == 16
    assert kernel_size(-3, 5, 1, 1) == 25


def test_kernel_size_small_grid():
    for d in GRID_DISCS:
        for p in (2, 3, 5):
            for A in (1, 2):
                for B in (1, 2):
                    if p ** (A + B) <= 64:
                        assert kernel_size(d, p, A, B) == p ** (2 * B), (d, p, A, B)


def test_stabilizer_examples():
    report = max_stabilizer_order(-4, 5, 0)
    assert report.max_stabilizer_order == 4
    assert report.expected_divisor == 4
    assert report.split_type == Splitting.SPLIT

    report = max_stabilizer_order(-7, 5, 0)
    assert report.max_stabilizer_order == 1  # the action is simply transitive

    report = max_stabilizer_order(-4, 2, 1)
    assert report.expected_divisor == 2
    assert report.divides


def test_stabilizer_division_rules_small_grid():
    for d in GRID_DISCS:
        for p in (2, 3, 5, 7):
            report = max_stabilizer_order(d, p, 0)
            kind = splitting_type(d, p)
            expected = {Splitting.SPLIT: p - 1, Splitting.INERT: 1, Splitting.RAMIFIED: p}[kind]
            assert report.expected_divisor == expected
            assert expected % report.max_stabilizer_order == 0, (d, p)
            if kind == Splitting.INERT:
                assert report.max_stabilizer_order == 1


def test_stabilizer_deeper_levels_divide_p():
    for d in (-3, -4, -7):
        for p, A in [(2, 1), (2, 2), (3, 1), (5, 1)]:
            report = max_stabilizer_order(d, p, A)
            assert p % report.max_stabilizer_order == 0, (d, p, A)


def test_stabilizer_matches_per_candidate_oracle():
    # the criterion-5 grid, plus three order discriminants
    for d in GRID_DISCS + (-12, -16, -27):
        for p in (2, 3, 5, 7, 11, 13):
            A = 0
            while p ** (A + 1) <= 200:
                report = max_stabilizer_order(d, p, A)
                assert report.max_stabilizer_order == oracle_max_stabilizer_order(d, p, A), (d, p, A)
                A += 1


def test_kernel_size_rejects_composite_level():
    with pytest.raises(ValueError, match="not prime"):
        kernel_size(-4, 4, 1, 1)


def test_squaring_degree_bound():
    assert squaring_degree_bound(1, 1) == 1
    assert squaring_degree_bound(2, 3) == 3
    assert squaring_degree_bound(4, 4) == 4
    with pytest.raises(ValueError):
        squaring_degree_bound(0, 1)


def test_stabilizer_consistent_with_squaring_rule():
    # at prime level the observed stabilizer never exceeds the degree rule
    for d in GRID_DISCS:
        for p in (2, 3, 5, 7):
            report = max_stabilizer_order(d, p, 0)
            assert report.max_stabilizer_order <= squaring_degree_bound(1, p)


def test_caps_are_enforced():
    with pytest.raises(CapExceededError):
        cn_elements(-4, 1000)
    with pytest.raises(CapExceededError):
        kernel_size(-4, 2, 4, 4)
    with pytest.raises(CapExceededError):
        max_stabilizer_order(-4, 2, 8)
    with pytest.raises(CapExceededError):
        cn_order(-4, 201)  # checked once, by cn_elements
    with pytest.raises(CapExceededError) as refused:
        max_stabilizer_order(-4, 3, 30_000_000)  # refused on the exponent
    assert refused.value.requested == "3**30000001"


def test_bad_arguments():
    with pytest.raises(ValueError):
        cn_elements(-4, 1)
    with pytest.raises(ValueError):
        kernel_size(-4, 2, 0, 1)
    with pytest.raises(ValueError):
        max_stabilizer_order(-4, 2, -1)
