from decimal import Decimal

import numpy as np
import pytest

from tcm.analytics import mertens_product
from tcm.primes import (
    cached_primes,
    certified,
    phi_sieve,
    prime_list_bytes,
    prime_sieve,
    primes_in,
)

from conftest import (
    norm_sieve,
    prime_count_bound,
    sieve_phi,
    traced_peak,
    trial_factor,
)


def test_certified_reads_the_exact_value_only_near_a_boundary():
    def refuse():
        raise AssertionError("read the exact value away from a boundary")

    assert certified(0.5, 1e-15, refuse) == 0.5
    # x is just above the boundary 1.234567890125; its nearest float is just
    # below it, so the float returned is one ulp up
    x = Decimal("1.234567890125000000001")
    assert f"{float(x):.12g}" == "1.23456789012"
    assert f"{certified(1.2345678901249998, 1e-15, lambda: x):.12g}" == "1.23456789013"


def test_primes_up_to_matches_trial_division():
    for limit in (-3, 0, 1, 2, 3, 4, 97, 2000):
        expected = [n for n in range(2, limit + 1) if trial_factor(n) == [(n, 1)]]
        assert list(primes_in(prime_sieve(limit))) == expected, limit
        assert prime_sieve(limit).count(1) == len(expected), limit
    assert [prime_sieve(10**k).count(1) for k in (3, 4, 5, 6)] == [168, 1229, 9592, 78498]


def test_phi_sieve_matches_oracle_table():
    for limit in (0, 1, 2, 3, 4, 10, 97, 1000, 30030, 65537):
        table = phi_sieve(limit)
        assert table.dtype == np.int32
        assert table.tolist() == sieve_phi(limit), limit


def test_phi_sieve_matches_norm_sieve_oracle():
    # n_max(2000) and n_max(3010); p^2 - 1, p^2, p^2 + 1, where isqrt(limit)
    # moves onto or off a prime; r(r + 1) - 1, r(r + 1), r(r + 1) + 1, where
    # limit // (isqrt(limit) + 1), the largest smooth part below a prime
    # above the root, steps from r - 1 to r: the oracle's quotient n // smooth
    limits = [397_468, 612_546]
    limits += [p * p + k for p in (2, 3, 7, 31, 101, 997) for k in (-1, 0, 1)]
    limits += [r * (r + 1) + k for r in (2, 5, 30, 100, 706) for k in (-1, 0, 1)]
    for limit in limits:
        assert np.array_equal(phi_sieve(limit), norm_sieve(limit)), limit


def test_phi_sieve_refuses_tables_beyond_int32():
    with pytest.raises(ValueError):
        phi_sieve(2**31)


def test_prime_count_bound():
    for x in (2, 3, 10, 100, 17, 10**4, 10**6):
        assert prime_count_bound(x) >= prime_sieve(x).count(1), x
    assert prime_count_bound(1) == 0


def test_prime_list_bytes_bounds_measured_peak():
    for x in (10**3, 10**5, 10**6):
        cached_primes.cache_clear()
        assert traced_peak(mertens_product, x) <= prime_list_bytes(x), x
