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

from conftest import sieve_phi, traced_peak, trial_factor


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


def test_phi_sieve_refuses_tables_beyond_int32():
    with pytest.raises(ValueError):
        phi_sieve(2**31)


def test_prime_count_bound():
    for x in (2, 3, 10, 100, 17, 10**4, 10**6):
        assert prime_count_bound(x) >= len(prime_array(x)), x
    assert prime_count_bound(1) == 0


def test_phi_sieve_bytes_bounds_measured_peak():
    for limit in (10, 1000, 100_000, 400_000):
        assert traced_peak(phi_sieve, limit) <= phi_sieve_bytes(limit), limit


def test_prime_list_bytes_bounds_measured_peak():
    for x in (10**3, 10**5, 10**6):
        cached_primes.cache_clear()
        assert traced_peak(mertens_product, x) <= prime_list_bytes(x), x
