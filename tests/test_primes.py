import math
from decimal import Decimal

import numpy as np
import pytest

from tcm.analytics import mertens_product
from tcm.feasibility import bound_records
from tcm.primes import (
    _digits_settled,
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
    twelve_digits_settled,
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
    # the wheel mod 30 at its edges: every x <= 1000; x = p^2 - 1, p^2 and
    # p^2 + 1, where isqrt(x) moves onto or off a prime; and pi(10^k).  The
    # oracle up to 997^2 + 1 is trial division of every n by the primes
    # <= 998, one numpy pass each
    small = [n for n in range(2, 1001) if trial_factor(n) == [(n, 1)]]
    for x in range(-3, 1001):
        primes = [p for p in small if p <= x]
        assert list(primes_in(prime_sieve(x))) == primes, x
        assert prime_sieve(x).count(1) == len(primes), x
    top = 997**2 + 1
    n = np.arange(top + 1)
    prime = n >= 2
    for q in small:
        prime &= (n % q != 0) | (n == q)
    for p in (7, 11, 31, 997):
        for x in (p * p - 1, p * p, p * p + 1):
            expected = np.flatnonzero(prime[: x + 1]).tolist()
            assert list(primes_in(prime_sieve(x))) == expected, x
            assert prime_sieve(x).count(1) == len(expected), x
    pis = [168, 1229, 9592, 78498, 664579]
    assert [prime_sieve(10**k).count(1) for k in range(3, 8)] == pis


def test_digits_settled_implies_the_formatting_test():
    # the numeric boundary test never calls a value settled that the
    # formatting test would send to the exact path: over 10^6 seeded
    # values, half of them within 10^-2 of a rounding boundary, and over
    # every printed ratio B(d) / (d log log d) of [3, 10^5]
    rng = np.random.default_rng(2023)
    size = 10**6
    digits = rng.integers(10**11, 10**12, size)
    near = 0.5 + rng.uniform(-1e-2, 1e-2, size) * rng.random(size) ** 4
    offsets = np.where(np.arange(size) % 2 == 0, near, rng.random(size))
    values = ((digits + offsets) * 10.0 ** rng.integers(-25, 14, size).astype(float)).tolist()
    rel_errs = (2.0**-53 * rng.uniform(0, 64, size)).tolist()
    pairs = list(zip(values, rel_errs))
    for run in bound_records(3, 10**5):
        for d in range(run.d_lo, run.d_hi + 1):
            ll = math.log(math.log(d))
            pairs.append((run.bound / (d * ll), 2.0**-53 * (3 / ll + 6)))
    settled = [pair for pair in pairs if _digits_settled(*pair)]
    assert [pair for pair in settled if not twelve_digits_settled(*pair)] == []
    # and it sends few more to the exact path: 440,696 against the formatting
    # test's 378,523, most of the difference the values with |k| > 22
    assert len(pairs) - len(settled) < 1.2 * sum(not twelve_digits_settled(*pair) for pair in pairs)


def test_phi_sieve_matches_oracle_table():
    for limit in (0, 1, 2, 3, 4, 10, 97, 1000, 30030, 65537):
        table = phi_sieve(limit)
        assert table.typecode == "i" and table.itemsize == 4
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
    # an upper estimate everywhere, and within 1.5 times the peak once the
    # sieve outweighs the fixed part
    for x in (10**3, 10**5, 10**6, 4 * 10**6):
        cached_primes.cache_clear()
        peak = traced_peak(mertens_product, x)
        assert peak <= prime_list_bytes(x), x
        if x >= 10**6:
            assert prime_list_bytes(x) <= 1.5 * peak, x
