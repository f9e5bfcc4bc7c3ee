from fractions import Fraction

import pytest

from tcm.ideal_arith import ideals_up_to_norm, principal_ideal
from tcm.quad_core import class_number, fundamental_discriminants
from tcm.ray_class_bounds import degree_bounds


def test_degree_bounds_examples():
    b = degree_bounds(-4, principal_ideal(-4, 1))
    assert (b.lower_weak, b.lower, b.upper) == (Fraction(1, 6), Fraction(1, 4), 1)

    b = degree_bounds(-4, principal_ideal(-4, 5))
    assert (b.lower_weak, b.lower, b.upper) == (Fraction(8, 3), Fraction(4), 16)

    b = degree_bounds(-23, principal_ideal(-23, 1))
    assert (b.lower_weak, b.lower, b.upper) == (Fraction(1, 2), Fraction(3, 2), 3)


def test_hilbert_degree_sits_inside_unit_ideal_bounds():
    for d in fundamental_discriminants(100):
        b = degree_bounds(d, principal_ideal(d, 1))
        h = class_number(d)
        assert b.lower <= h <= b.upper


def test_weak_bound_collapses_only_for_minus_three():
    for d in fundamental_discriminants(60):
        b = degree_bounds(d, principal_ideal(d, 6))
        assert (b.lower_weak == b.lower) == (d == -3)
        assert b.lower_weak <= b.lower <= b.upper


def _divides(c, cprime) -> bool:
    exps = dict(c.factors)
    exps_prime = dict(cprime.factors)
    return all(exps_prime.get(P, 0) >= e for P, e in exps.items())


@pytest.mark.parametrize("d", [-4, -23])
def test_upper_bound_monotone_under_divisibility(d):
    ideals = list(ideals_up_to_norm(d, 200))
    bounds = {i: degree_bounds(d, i) for i in ideals}
    for c in ideals:
        for cprime in ideals:
            if _divides(c, cprime):
                assert bounds[c].upper <= bounds[cprime].upper


def test_min_degree_examples():
    # full n-torsion over FK forces [F:Q] >= h * phi_K((n)) / 6
    examples = [(-4, 1, Fraction(1, 6)), (-4, 5, Fraction(8, 3)), (-3, 2, Fraction(1, 2))]
    for d, n, expected in examples:
        assert degree_bounds(d, principal_ideal(d, n)).lower_weak == expected


@pytest.mark.parametrize("d", [-3, -4, -23])
def test_min_degree_nondecreasing_along_divisor_chains(d):
    floor = {n: degree_bounds(d, principal_ideal(d, n)).lower_weak for n in range(1, 61)}
    for n in range(1, 61):
        for m in range(n, 61, n):
            assert floor[n] <= floor[m]


def test_degree_bounds_rejects_mismatched_field():
    with pytest.raises(ValueError):
        degree_bounds(-4, principal_ideal(-3, 1))
