import itertools
import re

import numpy as np
import pytest

from tcm.ideal_arith import (
    FactoredIdeal,
    brute_force_phi,
    ideal_norm,
    ideals_up_to_norm,
    min_phi_ideal,
    phi_K,
    phi_K_of_N,
    principal_ideal,
)
from tcm.quad_core import Splitting, fundamental_discriminants

from conftest import (
    ideal_count_oracle,
    kronecker,
    least_phi_by_norm,
    naive_phi,
    oracle_min_phi,
    oracle_unit_pairs,
    order_discriminants,
)


def test_primes_above_split_inert_ramified():
    # the prime ideals above p are the factors of (p)
    two_above_five = principal_ideal(-4, 5).factors
    assert [(P.norm, e) for P, e in two_above_five] == [(5, 1), (5, 1)]
    assert {P.conjugate_index for P, _ in two_above_five} == {0, 1}
    assert all(P.splitting == Splitting.SPLIT for P, _ in two_above_five)

    ((inert, e),) = principal_ideal(-4, 3).factors
    assert inert.norm == 9 and inert.splitting == Splitting.INERT and e == 1

    ((ramified, e),) = principal_ideal(-4, 2).factors
    assert ramified.norm == 2 and ramified.splitting == Splitting.RAMIFIED and e == 2


def test_primes_above_rejects_nonfundamental():
    with pytest.raises(ValueError):
        principal_ideal(-12, 5)


def test_enumeration_tests_each_prime_once(monkeypatch):
    import tcm.quad_core
    from tcm.primes import is_prime, prime_sieve

    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(tcm.quad_core, "is_prime", counting)
    x = 10**4
    for _ in ideals_up_to_norm(-3, x):
        pass
    assert len(calls) <= prime_sieve(x).count(1)


def test_principal_ideal_examples():
    one = principal_ideal(-4, 1)
    assert one.factors == () and ideal_norm(one) == 1

    two = principal_ideal(-4, 2)
    assert len(two.factors) == 1
    assert two.factors[0][1] == 2  # ramified prime squared
    assert ideal_norm(two) == 4

    five = principal_ideal(-4, 5)
    assert len(five.factors) == 2
    assert ideal_norm(five) == 25


@pytest.mark.parametrize("d", [-4, -23])
def test_principal_ideal_norm_is_square(d):
    for n in range(1, 1001):
        assert ideal_norm(principal_ideal(d, n)) == n * n


def test_phi_examples():
    assert phi_K(principal_ideal(-4, 1)) == 1
    assert phi_K(principal_ideal(-4, 5)) == 16
    assert phi_K(principal_ideal(-4, 2)) == 2
    assert phi_K_of_N(-4, 12) == 64
    assert phi_K_of_N(-3, 3) == 6
    assert phi_K_of_N(-7, 1) == 1


def test_phi_multiplicative_over_coprime_supports():
    for d in (-4, -7, -23):
        for m, n in itertools.combinations((2, 3, 5, 7), 2):
            product = principal_ideal(d, m * n)
            assert phi_K(product) == phi_K(principal_ideal(d, m)) * phi_K(principal_ideal(d, n))


def test_phi_prime_power_rule():
    for d in (-4, -7):
        disc = principal_ideal(d, 1).disc
        for p in (2, 3, 5):
            for P, _ in principal_ideal(d, p).factors:
                ideal = FactoredIdeal(disc=disc, factors=((P, 3),))
                assert phi_K(ideal) == P.norm**2 * (P.norm - 1)


def test_inert_prime_power_norm():
    ((inert, _),) = principal_ideal(-4, 3).factors
    squared = FactoredIdeal(disc=principal_ideal(-4, 1).disc, factors=((inert, 2),))
    assert ideal_norm(squared) == 81


def test_brute_force_phi_examples_and_cap():
    assert brute_force_phi(-4, 5) == 16
    assert brute_force_phi(-4, 1) == 1
    assert brute_force_phi(-7, 3) == 8
    with pytest.raises(ValueError, match=f"^{re.escape('n=301 exceeds cap 300')}$"):
        brute_force_phi(-4, 301)


def test_brute_force_phi_accepts_order_discriminants():
    # the residue count sees the non-maximal ring, not its fraction field
    assert brute_force_phi(-12, 5) == 24


def test_brute_force_phi_matches_oracle_pairs():
    # orders too, the cap's edge, both sides of n = 256 (where the norms no
    # longer fit in a byte), and a |D| whose products overflow int64 unless
    # D and (D^2 - D)/4 are reduced mod n first
    cases = [(d, n) for d in order_discriminants(60) for n in range(1, 31)]
    cases += [(-4, 299), (-4, 300)] + [(-999_999_999_999, n) for n in range(1, 31)]
    cases += [(d, n) for d in (-3, -7, -12, -999_999_999_999) for n in (250, 255, 256, 257, 300)]
    for d, n in cases:
        assert brute_force_phi(d, n) == len(oracle_unit_pairs(d, n)), (d, n)


def test_formula_matches_brute_force_small_grid():
    for d in fundamental_discriminants(40):
        for n in range(1, 26):
            assert phi_K_of_N(d, n) == brute_force_phi(d, n), (d, n)


def test_phi_K_of_N_matches_phi_of_principal_ideal():
    # the grid has 2 split (-7, -15), inert (-3, -11) and ramified (-4, -8),
    # up to 2^8, and prime powers of each kind for the odd primes too
    assert [kronecker(d, 2) for d in (-7, -15, -3, -11, -4, -8)] == [1, 1, -1, -1, 0, 0]
    for d in fundamental_discriminants(200):
        for n in range(1, 401):
            assert phi_K_of_N(d, n) == phi_K(principal_ideal(d, n)), (d, n)


def test_phi_K_of_N_errors():
    with pytest.raises(ValueError, match=r"^-12 is not a fundamental discriminant$"):
        phi_K_of_N(-12, 5)
    with pytest.raises(ValueError, match=r"^-12 is not a fundamental discriminant$"):
        phi_K_of_N(-12, 0)
    with pytest.raises(ValueError, match=r"^need n >= 1, got 0$"):
        phi_K_of_N(-4, 0)


def test_proven_primes_skip_primality_test(monkeypatch):
    # factorize and cached_primes return proven primes
    import tcm.primes
    import tcm.quad_core
    from tcm.primes import is_prime

    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    for module in (tcm.primes, tcm.quad_core):
        monkeypatch.setattr(module, "is_prime", counting)
    principal_ideal(-4, 2**3 * 3**2 * 5 * 7)
    min_phi_ideal(-7, 1584)
    for _ in ideals_up_to_norm(-3, 10**4):
        pass
    assert calls == []


@pytest.mark.parametrize("d", [-3, -4, -7])
def test_phi_dominates_classical_phi_squared(d):
    for n in range(1, 61):
        value = phi_K_of_N(d, n)
        classical = naive_phi(n)
        assert value >= classical * classical
        all_split = all(kronecker(d, p) == 1 for p in range(2, n + 1) if n % p == 0 and _is_prime(p))
        assert (value == classical * classical) == all_split, (d, n)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % q for q in range(2, int(p**0.5) + 1))


def test_ideals_up_to_norm_example():
    norms = [ideal_norm(ideal) for ideal in ideals_up_to_norm(-4, 5)]
    assert norms == [1, 2, 4, 5, 5]
    assert next(iter(ideals_up_to_norm(-4, 1))).factors == ()


@pytest.mark.parametrize("d", [-4, -23])
def test_ideal_counts_match_divisor_sum_oracle(d):
    by_norm: dict[int, int] = {}
    seen = set()
    for ideal in ideals_up_to_norm(d, 500):
        assert ideal not in seen
        seen.add(ideal)
        by_norm[ideal_norm(ideal)] = by_norm.get(ideal_norm(ideal), 0) + 1
    for n in range(1, 501):
        assert by_norm.get(n, 0) == ideal_count_oracle(d, n), (d, n)


def test_ideals_stream_is_sorted_and_restartable():
    first = list(ideals_up_to_norm(-7, 200))
    second = list(ideals_up_to_norm(-7, 200))
    assert first == second
    keys = [(ideal_norm(i), tuple((P.p, P.conjugate_index, e) for P, e in i.factors)) for i in first]
    assert keys == sorted(keys)


@pytest.mark.parametrize("d", [-3, -4, -7, -15])
def test_factors_are_ordered_by_construction(d):
    # no sort: factorize yields p ascending and the conjugates come 0 then 1
    def increasing(ideal):
        keys = [(P.p, P.conjugate_index) for P, _ in ideal.factors]
        return all(x < y for x, y in zip(keys, keys[1:]))

    has_norm = set(least_phi_by_norm(d, 2000).nonzero()[0].tolist())
    for n in range(1, 2001):
        assert increasing(principal_ideal(d, n)), (d, n)
        if n in has_norm:
            assert increasing(min_phi_ideal(d, n)), (d, n)
        else:
            with pytest.raises(ValueError, match="has norm"):
                min_phi_ideal(d, n)


def _expected_min_phi(best, x):
    return [phi_K(best[n]) if n in best else 0 for n in range(x + 1)]


@pytest.mark.parametrize("d", [-3, -4, -7, -8, -15, -84])
def test_norm_sieve_matches_enumeration(d):
    x = 1000
    best = oracle_min_phi(d, x)
    minphi = least_phi_by_norm(d, x)
    assert minphi.dtype == np.int32 and len(minphi) == x + 1
    assert minphi.tolist() == _expected_min_phi(best, x)


@pytest.mark.parametrize("d", [-3, -4, -20, -23])
def test_norm_sieve_zero_exactly_where_no_ideal(d):
    minphi = least_phi_by_norm(d, 2000)
    for n in range(1, 2001):
        assert (minphi[n] == 0) == (ideal_count_oracle(d, n) == 0), (d, n)


@pytest.mark.parametrize("d,p", [(-3, 2), (-4, 3)])
def test_norm_sieve_inert_prime_power_cutoffs(d, p):
    # x = p^k - 1, p^k, p^k + 1 for an inert p: the plan takes the step of
    # p^k from x = p^k on, and its parity step zeroes (k odd) or restores
    # (k even) the table's last entry or the one before it
    cutoffs = [p**k + s for k in range(1, 10) if p**k <= 1000 for s in (-1, 0, 1)]
    best = oracle_min_phi(d, max(cutoffs))
    for x in cutoffs:
        assert least_phi_by_norm(d, x).tolist() == _expected_min_phi(best, x), (d, x)


@pytest.mark.parametrize("d", [-3, -4, -7])
def test_norm_sieve_last_cofactor_cutoffs(d):
    # r(r + 1) - 1, r(r + 1), r(r + 1) + 1: the largest smooth part below a
    # prime above the root, x // (isqrt(x) + 1), steps
    cutoffs = [r * (r + 1) + s for r in (2, 5, 12, 30) for s in (-1, 0, 1)]
    best = oracle_min_phi(d, max(cutoffs))
    for x in cutoffs:
        assert least_phi_by_norm(d, x).tolist() == _expected_min_phi(best, x), (d, x)


@pytest.mark.parametrize("d,x", [(-67, 1000), (-248, 500), (-516, 600)])
def test_norm_sieve_ramified_prime_above_root(d, x):
    # 67, 31 (-248 = -8 * 31) and 43 (-516 = -4 * 3 * 43) ramify and lie
    # above isqrt(x): the quotient n // smooth reads chi = 0 and gains q - 1
    assert least_phi_by_norm(d, x).tolist() == _expected_min_phi(oracle_min_phi(d, x), x)


def test_norm_sieve_tiny_cutoffs():
    assert least_phi_by_norm(-4, 1).tolist() == [0, 1]
    assert least_phi_by_norm(-4, 2).tolist() == [0, 1, 1]
    assert least_phi_by_norm(-3, 4).tolist() == [0, 1, 0, 2, 3]


@pytest.mark.parametrize(
    "d,n,expected",
    [
        (-4, 5, "P5.0"),  # split, e = 1
        (-4, 25, "P5.0*P5.1"),  # split square: both conjugates
        (-4, 125, "P5.0*P5.1^2"),
        (-4, 9, "P3"),  # inert square: the prime of norm 9
        (-4, 81, "P3^2"),
        (-4, 8, "P2^3"),  # ramified power
        (-84, 49, "P7^2"),
        (-4, 2 * 9 * 25, "P2*P3*P5.0*P5.1"),
        (-7, 1, "(1)"),
    ],
)
def test_min_phi_ideal_tie_break_matches_stream(d, n, expected):
    ideal = min_phi_ideal(d, n)
    assert str(ideal) == expected
    assert ideal == oracle_min_phi(d, n)[n]
    assert phi_K(ideal) == least_phi_by_norm(d, n)[n]


def test_min_phi_ideal_rejects_norms_without_ideals():
    with pytest.raises(ValueError):
        min_phi_ideal(-4, 3)
    with pytest.raises(ValueError):
        min_phi_ideal(-4, 27)
