import numpy as np
import pytest

from tcm.analytics import mertens_product
from tcm.primes import (
    cached_primes,
    phi_sieve,
    phi_sieve_bytes,
    prime_count_bound,
    prime_array,
    prime_list_bytes,
)

from conftest import sieve_phi, slice_phi_sieve, traced_peak, trial_factor


def test_primes_up_to_matches_trial_division():
    for limit in (-3, 0, 1, 2, 3, 4, 97, 2000):
        expected = [n for n in range(2, limit + 1) if trial_factor(n) == [(n, 1)]]
        assert prime_array(limit).tolist() == expected, limit
    assert [len(prime_array(10**k)) for k in (3, 4, 5, 6)] == [168, 1229, 9592, 78498]


def test_phi_sieve_matches_oracle_table():
    for limit in (0, 1, 2, 3, 4, 10, 97, 1000, 30030, 65537):
        table = phi_sieve(limit)
        assert table.dtype == np.int32
        assert table.tolist() == sieve_phi(limit), limit


def test_phi_sieve_matches_slice_oracle():
    # n_max(2000) and n_max(3010); p^2 - 1, p^2, p^2 + 1, where isqrt(limit)
    # moves onto or off a prime; r(r + 1) - 1, r(r + 1), r(r + 1) + 1, where
    # the last cofactor limit // (isqrt(limit) + 1) steps from r - 1 to r
    limits = [397_468, 612_546]
    limits += [p * p + k for p in (2, 3, 7, 31, 101, 997) for k in (-1, 0, 1)]
    limits += [r * (r + 1) + k for r in (2, 5, 30, 100, 706) for k in (-1, 0, 1)]
    for limit in limits:
        assert np.array_equal(phi_sieve(limit), slice_phi_sieve(limit)), limit


def test_phi_sieve_refuses_tables_beyond_int32():
    with pytest.raises(ValueError):
        phi_sieve(2**31)


def test_prime_count_bound():
    for x in (2, 3, 10, 100, 17, 10**4, 10**6):
        assert prime_count_bound(x) >= len(prime_array(x)), x
    assert prime_count_bound(1) == 0


def test_phi_sieve_bytes_bounds_measured_peak():
    for limit in (10, 1000, 100_000, 400_000, 610_511, 2_081_501):
        assert traced_peak(phi_sieve, limit) <= phi_sieve_bytes(limit), limit


def test_prime_list_bytes_bounds_measured_peak():
    for x in (10**3, 10**5, 10**6):
        cached_primes.cache_clear()
        assert traced_peak(mertens_product, x) <= prime_list_bytes(x), x
