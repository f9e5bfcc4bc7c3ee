"""Prime generation and elementary factorization helpers.

Everything here is exact integer arithmetic.  The prime sieve is a
numpy bool table and the totient sieve a numpy int32 table built on its
primes.  The ``*_bytes`` functions estimate peak memory by arithmetic
alone, so a caller can refuse a request before allocating anything.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, log

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

EULER_GAMMA = 0.5772156649015329


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, by the sieve of Eratosthenes."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite)


@lru_cache(maxsize=8)
def cached_primes(limit: int) -> tuple[int, ...]:
    """Memoized tuple of primes <= limit (read-only after creation)."""
    return tuple(prime_array(limit).tolist())


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # wheel over 6k+-1
    p = 7
    step = 4
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return out


def squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    return all(e == 1 for _, e in factorize(n))


def prime_count_bound(x: int) -> int:
    """Upper bound on the number of primes <= x.

    pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, Illinois
    J. Math. 6, 1962, (3.6)).
    """
    return int(1.25506 * x / log(x)) + 1 if x > 1 else 0


# bytes per prime: the analytic products hold a few 8-byte arrays over
# the primes at once (the primes, their residues, chi(p) and the
# temporaries of the log sum); the rest is headroom
_PRIME_LIST_BYTES = 100


def prime_list_bytes(x: int) -> int:
    """Upper estimate of the peak memory of an analytic product over primes <= x.

    The sieve's bool table and its complement (2 B per entry) plus the
    per-prime cost.
    """
    return 2 * (x + 1) + _PRIME_LIST_BYTES * prime_count_bound(x)


def phi_sieve_bytes(limit: int) -> int:
    """Upper estimate of phi_sieve's peak memory.

    The int32 table (4 B per entry), the int64 array of the primes (8 B
    per prime), the large-prime step's int32 copy of q - 1 and its two
    buffers (16 B per prime) and 64 KiB for array headers.  The slice
    updates work in place, and the prime sieve's two bool tables (2 B per
    entry) are freed before the table is allocated.
    """
    return 4 * (limit + 1) + 24 * prime_count_bound(limit) + (1 << 16)


def phi_sieve(limit: int) -> np.ndarray:
    """Totient table phi[0..limit] (phi[0] = 0) as a numpy int32 array.

    A prime p <= r = isqrt(limit) takes one in-place slice update,
    phi[p::p] //= p then *= p - 1; the division is exact, as the smaller
    primes took no factor p out of these entries.  That finishes every
    entry whose prime factors are all at most r.  Any other entry is
    n = j q for one prime q > r (q^2 > limit) and a cofactor
    j <= limit // (r + 1) <= r < q.  So q does not divide j and every
    prime factor of j is at most r: after the slices phi[j] = phi(j) is
    final and phi[j q] = q phi(j), whose totient is (q - 1) phi(j).  For
    each cofactor j that value is written to every prime q in
    (r, limit / j] in one scatter.  The step holds an int32 copy of
    q - 1 and two buffers over the primes above r, int64 for the indices
    j q and int32 for the values (q - 1) phi(j).  The buffers are
    allocated once, not per j, so the step leaves no fragmented heap to
    raise the peak RSS of the sweep that follows.  int32 holds every
    entry while limit < 2^31, which covers n_max(10^6) = 237,662,443;
    callers cast to int64 before squaring.
    """
    if limit >= 2**31:
        raise ValueError(f"phi_sieve limit {limit} does not fit int32")
    primes = prime_array(limit)
    phi = np.arange(limit + 1, dtype=np.int32)
    root = isqrt(limit)
    small = int(np.searchsorted(primes, root, side="right"))
    for p in map(int, primes[:small]):
        multiples = phi[p::p]
        multiples //= p
        multiples *= p - 1
    large = primes[small:]
    large_less_one = (large - 1).astype(np.int32)
    index = np.empty_like(large)
    value = np.empty_like(large_less_one)
    for j in range(1, limit // (root + 1) + 1):
        count = int(np.searchsorted(large, limit // j, side="right"))
        np.multiply(large[:count], j, out=index[:count])
        np.multiply(large_less_one[:count], phi[j], out=value[:count])
        phi[index[:count]] = value[:count]
    return phi
