"""Prime generation and elementary factorization helpers.

Everything here is exact integer arithmetic.  The prime sieve is a
numpy bool table.  ``least_phi_sieve`` is the one multiplicative sieve
built on its primes: the least phi_K over the ideals of each norm, as a
numpy int32 table, for the character table of any imaginary quadratic
field K.  The totient table ``phi_sieve`` is its case with every prime
ramified, and ``ideal_arith.norm_sieve`` its case for a given field.
The ``*_bytes`` functions estimate peak memory by arithmetic alone, so
a caller can refuse a request before allocating anything.
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

# the character table of period 1 that makes every prime ramified
_ALL_RAMIFIED = np.zeros(1, dtype=np.int8)


def prime_list_bytes(x: int) -> int:
    """Upper estimate of the peak memory of an analytic product over primes <= x.

    The sieve's bool table and its complement (2 B per entry) plus the
    per-prime cost.
    """
    return 2 * (x + 1) + _PRIME_LIST_BYTES * prime_count_bound(x)


def phi_sieve_bytes(limit: int) -> int:
    """Upper estimate of least_phi_sieve's peak memory, character table aside.

    So also of phi_sieve.  The int32 table (4 B per entry), the int64
    array of the primes (8 B per prime), the large-prime step's int32
    gains and its two buffers (16 B per prime) and 64 KiB for array
    headers.  The slice updates work in place, and the prime sieve's two
    bool tables (2 B per entry) are freed before the table is allocated.
    """
    return 4 * (limit + 1) + 24 * prime_count_bound(limit) + (1 << 16)


def least_phi_sieve(limit: int, chi: np.ndarray) -> np.ndarray:
    """Least phi_K over the ideals of norm n, for n = 0 .. limit, as int32.

    chi is the character table of K, chi(p) = chi[p % len(chi)], of any
    period.  An entry is 0 when no ideal has norm n (and at n = 0).  The
    least phi_K is multiplicative in n, with local factors: split p -> p - 1,
    split p^e (e >= 2) -> p^(e-2)(p-1)^2 (both conjugates present), inert
    p^(2k) -> p^(2k-2)(p^2-1), inert odd powers -> 0, ramified p^e ->
    p^(e-1)(p-1).  With every prime ramified (chi = [0]) that is phi(n).
    Each factor is at most p^e, so every entry is at most n.

    A prime p <= r = isqrt(limit) takes one in-place slice update per power
    p^k <= limit, by a gain whose running product over k is the local
    factor; for an inert p and odd k the entries with p^k || n are then
    zeroed in place through a (-1, p) view of the same slice.  Any other
    entry is n = j q for one prime q > r (q^2 > limit) and a cofactor
    j <= limit // (r + 1) <= r < q.  So q does not divide j and every
    prime factor of j is at most r: after the slices table[j] is final and
    table[j q] = table[j] gain(q), with gain q - 1, or 0 for an inert q.
    For each cofactor j that value is written to every prime q in
    (r, limit / j] in one scatter.  The gains and the scatter's two
    buffers, int64 indices j q and int32 values, are allocated once, not
    per j, so the step leaves no fragmented heap to raise the peak RSS of
    the work that follows.  int32 holds every entry
    while limit < 2^31, which covers n_max(10^6) = 237,662,443; callers
    cast to int64 before squaring.
    """
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} does not fit int32")
    period = len(chi)
    primes = prime_array(limit)
    table = np.ones(limit + 1, dtype=np.int32)
    table[0] = 0
    root = isqrt(limit)
    small = int(np.searchsorted(primes, root, side="right"))
    for p in map(int, primes[:small]):
        kind = int(chi[p % period])
        gains = {1: (p - 1, p - 1), 0: (p - 1,), -1: (1, p * p - 1)}[kind]
        power, k = p, 1
        while power <= limit:
            multiples = table[power::power]
            gain = gains[k - 1] if k <= len(gains) else p
            if gain != 1:
                multiples *= gain
            if kind == -1 and k % 2:
                # zero the entries with p^k || n: all columns of the (-1, p)
                # view but the last, which holds the multiples of p^(k+1)
                full = len(multiples) - len(multiples) % p
                multiples[:full].reshape(-1, p)[:, :-1] = 0
                multiples[full:] = 0
            power *= p
            k += 1
    large = primes[small:]
    # the index buffer holds q - 1 and then q % period first, so that no
    # int64 temporary raises the peak
    index = np.empty_like(large)
    np.subtract(large, 1, out=index)
    large_gain = index.astype(np.int32)
    np.remainder(large, period, out=index)
    large_gain[chi[index] < 0] = 0
    value = np.empty_like(large_gain)
    for j in range(1, limit // (root + 1) + 1):
        count = int(np.searchsorted(large, limit // j, side="right"))
        np.multiply(large[:count], j, out=index[:count])
        np.multiply(large_gain[:count], table[j], out=value[:count])
        table[index[:count]] = value[:count]
    return table


def phi_sieve(limit: int) -> np.ndarray:
    """Totient table phi[0..limit] (phi[0] = 0) as a numpy int32 array.

    ``least_phi_sieve`` with every prime ramified: the ramified local
    factor p^(e-1)(p-1) is phi(p^e).
    """
    return least_phi_sieve(limit, _ALL_RAMIFIED)
