"""Prime generation and elementary factorization helpers.

Everything here but ``certified`` is exact integer arithmetic.  The
prime sieve is one odd-only bytearray, ``prime_sieve``, read as a
stream by ``primes_in``: the Euler products of ``analytics`` and chi's
table in ``quad_core`` read their primes from it, and no list of primes
is kept.  ``nth_prime`` reads the primes the prime-set searches
(``feasibility.bound_records``, and the window minimum behind
``analytics.phi_bound_scan`` and ``landau_liminf_check``) reach, one
``is_prime`` at a time, so they sieve nothing.  ``prime_list_bytes``
estimates peak memory by arithmetic alone, so a caller can refuse a
request before allocating anything.  ``certified`` settles the 12
printed digits of a float from its error bound, with an exact fallback
near a rounding boundary.  ``phi_sieve``, the totient as one numpy
table, has no reader in the library; the benchmark times it.

numpy is imported by ``phi_sieve`` when it runs, not with the module, so
everything else here loads without it: ``tcm bound``, every
``analytics`` command and ``quad_core`` read this module and load no
numpy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import chain, compress
from math import inf, isqrt, nextafter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from decimal import Decimal

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

EULER_GAMMA = 0.5772156649015329


def certified(value: float, rel_err: float, exact: Callable[..., Decimal], *args) -> float:
    """value if its 12 significant digits are surely those of x, else the
    float nearest x whose 12 digits are.

    value is within relative rel_err of x, with an ulp to spare, and
    exact(*args) gives x as a Decimal to far more than 12 digits; it is
    called only when a 12-digit rounding boundary lies within rel_err of
    value.
    """
    if f"{value * (1 - rel_err):.12g}" == f"{value * (1 + rel_err):.12g}":
        return value
    x = exact(*args)
    value = float(x)
    # a boundary between x and its nearest float: one ulp toward x crosses it
    if float(f"{value:.12g}") != float(f"{x:.12g}"):
        value = nextafter(value, inf if x > value else -inf)
    return value


def prime_sieve(x: int) -> bytearray:
    """The sieve of Eratosthenes over the odd n <= x: entry i is 1 exactly
    when 2i + 1 is prime, but entry 0, which would stand for 1, stands
    for 2.  So ``count(1)`` is the number of primes <= x.

    Each odd prime p <= isqrt(x) zeroes its odd multiples from p^2 on,
    one slice assignment from a zero bytearray of the slice's length (x/6
    B at p = 3; a ``bytes`` would be copied into a bytearray first).
    """
    if x < 2:
        return bytearray(max(x + 1, 0) // 2)
    size = (x + 1) // 2
    sieve = bytearray(b"\x01") * size
    for i in range(1, (isqrt(x) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytearray(len(range(start, size, p)))
    return sieve


def primes_in(sieve: bytearray) -> Iterator[int]:
    """The primes a ``prime_sieve`` marks, ascending, as a stream."""
    return compress(chain((2,), range(3, 2 * len(sieve), 2)), sieve)


@lru_cache(maxsize=8)
def cached_primes(limit: int) -> tuple[int, ...]:
    """Memoized tuple of primes <= limit (read-only after creation)."""
    return tuple(primes_in(prime_sieve(limit)))


# the primes from 2 on, extended as the prime-set searches reach them
_PRIMES = [2, 3]


def nth_prime(i: int) -> int:
    """The i-th prime, 2 being the 0th, found by ``is_prime`` on first use."""
    while len(_PRIMES) <= i:
        q = _PRIMES[-1] + 2
        while not is_prime(q):
            q += 2
        _PRIMES.append(q)
    return _PRIMES[i]


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


# prime_list_bytes: per number up to x, the sieve (1/2 B) and the zero
# bytes its slice at p = 3 assigns from (1/6 B); and the rest: the float
# sum's partials, the decimal fallback and the printed digits
_PRIME_SIEVE_FIXED_BYTES = 64 << 10


def prime_list_bytes(x: int) -> int:
    """Upper estimate of the peak memory of an Euler product over the primes <= x.

    The primes are a stream over one ``prime_sieve``, so the product
    holds the sieve, x/2 B, and at its building the zero bytes of the
    slice at p = 3, x/6 B; no list of primes.
    """
    x = max(x, 0)
    return x // 2 + x // 6 + _PRIME_SIEVE_FIXED_BYTES


def phi_sieve(limit: int):
    """Totient table phi[0..limit] (phi[0] = 0) as a numpy int32 array.

    One slice update per prime: phi[p::p] -= phi[p::p] // p for every
    prime p <= limit / 2, and p - 1 at the primes above limit / 2, which
    have no other multiple in the table.  int32 holds every entry while
    limit < 2^31; a larger limit is refused before the table exists.
    """
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} does not fit int32")
    import numpy as np

    primes = np.fromiter(primes_in(prime_sieve(limit)), dtype=np.int64)
    phi = np.arange(limit + 1, dtype=np.int32)
    half = int(np.searchsorted(primes, limit // 2, side="right"))
    phi[primes[half:]] -= 1
    for p in map(int, primes[:half]):
        multiples = phi[p::p]
        multiples -= multiples // p
    return phi


__all__ = [
    "EULER_GAMMA",
    "cached_primes",
    "certified",
    "factorize",
    "is_prime",
    "nth_prime",
    "phi_sieve",
    "prime_list_bytes",
    "prime_sieve",
    "primes_in",
    "squarefree",
]
