import itertools
import re
from math import gcd

import pytest

import tcm.galois_image
from tcm.galois_image import (
    UnitGroup,
    cn_elements,
    kernel_size,
    max_stabilizer_order,
    verify_homotheties,
)
from tcm.ideal_arith import brute_force_phi
from tcm.quad_core import Splitting, splitting_type

from conftest import (
    GRID_DISCS,
    oracle_matrix,
    oracle_max_stabilizer_order,
    oracle_unit_pairs,
    pair_times,
    traced_peak,
)


def test_cn_sizes_examples():
    assert len(cn_elements(-4, 2)) == 2
    assert len(cn_elements(-7, 5)) == 24
    assert len(cn_elements(-4, 5)) == 16


def test_cn_order_matches_brute_force_grid():
    for d in GRID_DISCS:
        for n in range(2, 41):
            assert len(cn_elements(d, n)) == len(oracle_unit_pairs(d, n)), (d, n)


def test_cn_accepts_order_discriminants():
    assert len(cn_elements(-12, 7)) == len(oracle_unit_pairs(-12, 7))


def test_cn_elements_matches_oracle_pairs():
    for d in GRID_DISCS + (-12,):
        for n in range(2, 41):
            pairs = cn_elements(d, n)
            assert type(pairs) is UnitGroup, (d, n)
            listed = list(pairs)
            assert all(type(pair) is tuple and len(pair) == 2 for pair in listed), (d, n)
            assert all(type(entry) is int for pair in listed for entry in pair), (d, n)
            assert listed == oracle_unit_pairs(d, n), (d, n)


def test_cn_elements_order_and_contents():
    pairs = cn_elements(-4, 6)
    assert list(pairs) == sorted(pairs) and len(pairs) == len(set(pairs)) == 16
    assert (1, 0) in pairs  # the identity
    assert (0, 0) not in pairs  # zero
    assert (2, 0) not in pairs  # a zero divisor


def test_unit_group_view_matches_oracle():
    # len, two equal passes, and membership by one mask byte at every pair
    # of [0, n)^2; a pair outside that square is no member
    for d in GRID_DISCS + (-12,):
        for n in range(2, 41):
            group, oracle = cn_elements(d, n), oracle_unit_pairs(d, n)
            assert len(group) == len(oracle), (d, n)
            assert list(group) == list(group) == oracle, (d, n)
            units = set(oracle)
            for pair in itertools.product(range(n), repeat=2):
                assert (pair in group) is (pair in units), (d, n, pair)
            for pair in [(n, 0), (0, n), (-1, 0), (0, -1), (1, n), (n + 1, 1), (-n, 0)]:
                assert pair not in group, (d, n, pair)


def test_group_order_builds_no_pairs():
    # with the mask memoized the order is one bytes.count; a list of one
    # (x, y) tuple per unit takes about 700 KiB here
    cn_elements(-4, 200)
    assert traced_peak(lambda: len(cn_elements(-4, 200))) < 4096


@pytest.mark.parametrize("d,n", [(-3, 12), (-4, 8), (-7, 9), (-8, 6), (-7, 30)])
def test_group_axioms_exhaustive(d, n):
    elements = cn_elements(d, n)
    as_set = set(elements)
    assert (1, 0) in as_set
    for (ux, uy), (vx, vy) in itertools.product(elements, elements):
        prod = pair_times(d, n, ux, uy, vx, vy)
        assert prod in as_set
        assert pair_times(d, n, vx, vy, ux, uy) == prod  # the ring is commutative
        # the pair law reproduces the literal matrix product
        (a, b), (c, e) = oracle_matrix(d, n, ux, uy)
        (f, g), (h, k) = oracle_matrix(d, n, vx, vy)
        literal = [
            [(a * f + b * h) % n, (a * g + b * k) % n],
            [(c * f + e * h) % n, (c * g + e * k) % n],
        ]
        assert literal == oracle_matrix(d, n, *prod)


def test_determinant_is_a_unit():
    for x, y in cn_elements(-7, 20):
        (a, b), (c, d) = oracle_matrix(-7, 20, x, y)
        assert gcd(a * d - b * c, 20) == 1


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


def test_kernel_size_refuses_a_reduction_that_is_not_surjective(monkeypatch):
    # a mask that drops one unit leaves the level-p^A group one unit short of
    # the images of the level-p^(A+B) units, which still cover every residue
    unit_mask = tcm.galois_image._unit_mask

    def one_unit_short(delta, n):
        mask = unit_mask(delta, n)
        first = mask.find(1)
        return mask[:first] + b"\0" + mask[first + 1 :]

    assert kernel_size(-4, 3, 1, 1) == 9
    monkeypatch.setattr(tcm.galois_image, "_unit_mask", one_unit_short)
    for d, p, A, B in [(-4, 3, 1, 1), (-7, 2, 2, 3), (-3, 5, 1, 2)]:
        message = f"reduction mod {p**A} of the level-{p ** (A + B)} group is not surjective"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            kernel_size(d, p, A, B)


def test_unit_mask_matches_oracle_pairs_on_both_sides_of_the_byte_split():
    # n < 256 reads each column through bytes.translate, n >= 256 through a
    # map; two order discriminants beside the grid
    unit_mask = tcm.galois_image._unit_mask
    for d in GRID_DISCS + (-12, -27):
        for n in (*range(2, 61), 250, 255, 256, 257, 300):
            expected = bytearray(n * n)
            for x, y in oracle_unit_pairs(d, n):
                expected[x * n + y] = 1
            assert unit_mask(d, n) == expected, (d, n)


def test_unit_mask_is_built_once_per_level():
    unit_mask = tcm.galois_image._unit_mask
    assert unit_mask.cache_info().maxsize is not None
    # the group's elements and its order read one scan of the ring
    unit_mask.cache_clear()
    assert len(cn_elements(-7, 60)) == brute_force_phi(-7, 60)
    assert unit_mask.cache_info()[:2] == (1, 1)  # (hits, misses)
    # kernels from level 2^(A+B) to 2^A, A, B >= 1, up to 128: seven levels
    unit_mask.cache_clear()
    for A in range(1, 7):
        for B in range(1, 8 - A):
            assert kernel_size(-7, 2, A, B) == 4**B
    assert unit_mask.cache_info().misses == 7
    # a level-p stabilizer scan reads its candidates off its own mask
    unit_mask.cache_clear()
    max_stabilizer_order(-7, 13, 0)
    assert unit_mask.cache_info()[:2] == (0, 1)


def test_kernel_size_rejects_composite_level():
    with pytest.raises(ValueError, match="not prime"):
        kernel_size(-4, 4, 1, 1)


def test_stabilizer_consistent_with_squaring_rule():
    # at prime level the observed stabilizer never exceeds the degree rule:
    # full p-torsion from shape (1, p) needs an extension of degree <= b = p
    for d in GRID_DISCS:
        for p in (2, 3, 5, 7):
            report = max_stabilizer_order(d, p, 0)
            assert report.max_stabilizer_order <= p


def _refused(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_caps_are_enforced():
    with _refused("n=1000 exceeds cap 200"):
        cn_elements(-4, 1000)
    with _refused("p**(A+B)=2**8 exceeds cap 200"):
        kernel_size(-4, 2, 4, 4)
    with _refused("p**(A+B)=243 exceeds cap 200"):
        kernel_size(-4, 3, 3, 2)
    with _refused("p**(A+1)=2**9 exceeds cap 200"):
        max_stabilizer_order(-4, 2, 8)
    with _refused("n=201 exceeds cap 200"):
        cn_elements(-4, 201)
    with _refused("p**(A+1)=3**30000001 exceeds cap 200"):
        max_stabilizer_order(-4, 3, 30_000_000)  # refused on the exponent


def test_bad_arguments():
    with pytest.raises(ValueError):
        cn_elements(-4, 1)
    with pytest.raises(ValueError):
        kernel_size(-4, 2, 0, 1)
    with pytest.raises(ValueError):
        max_stabilizer_order(-4, 2, -1)
