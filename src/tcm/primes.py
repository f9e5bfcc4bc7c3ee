"""Prime generation and elementary factorization helpers.

Everything here but ``certified`` is exact integer arithmetic.  The
prime sieve is one bytearray on a wheel mod 30, ``prime_sieve``: the
flags of 2, 3 and 5, then one entry per number coprime to 30, 8 per 30
numbers.  ``primes_in`` reads it as an ascending stream: the Euler
products of ``analytics`` and chi's table in ``quad_core`` read their
primes from it, and no list of primes is kept.  ``nth_prime`` reads the
primes the prime-set searches (``feasibility.bound_records``, and the
window minimum behind ``analytics.phi_bound_scan`` and
``landau_liminf_check``) reach, one ``is_prime`` at a time, so they
sieve nothing.  ``prime_list_bytes``
estimates peak memory by arithmetic alone, so a caller can refuse a
request before allocating anything.  ``certified`` settles the 12
printed digits of a float from its error bound, by the float distance
of the scaled value from the nearest rounding boundary, with an exact
fallback near one.  ``phi_sieve``, the totient table, has no reader in
the library; the benchmark times it.  It imports ``array`` when it runs:
no command builds the table, and each would pay 0.3 ms for the import.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import accumulate, chain, compress, cycle, repeat
from math import floor, inf, isqrt, log10, nextafter, ulp
from operator import floordiv, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from array import array
    from decimal import Decimal

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

EULER_GAMMA = 0.5772156649015329


def _digits_settled(value: float, rel_err: float) -> bool:
    """Whether no 12-digit rounding boundary lies within relative rel_err
    of value, so every x that near prints value's 12 significant digits.

    |value| is scaled by 10^k into [10^11, 10^12), where the boundaries are
    the half-integers and the nearest one to the scaled value s is
    floor(s) + 1/2.  10^k is exact for |k| <= 22, so s is within u = 2^-53
    of |value| 10^k and its fraction is exact; x is then within
    s (rel_err + 2u) of s, and one ulp of s is spare.  Outside that range,
    or when log10 lands s off it, the answer is False.
    """
    magnitude = abs(value)
    if not 0 < magnitude < inf:
        return False
    k = 11 - floor(log10(magnitude))
    if abs(k) > 22:
        return False
    scaled = magnitude * 10.0**k if k >= 0 else magnitude / 10.0**-k
    if not 1e11 <= scaled < 1e12:
        return False
    return abs(scaled - floor(scaled) - 0.5) > scaled * (rel_err + 2.0**-52) + ulp(scaled)


def certified(value: float, rel_err: float, exact: Callable[..., Decimal], *args) -> float:
    """value if its 12 significant digits are surely those of x, else the
    float nearest x whose 12 digits are.

    value is within relative rel_err of x, with an ulp to spare, and
    exact(*args) gives x as a Decimal to far more than 12 digits; it is
    called only when ``_digits_settled`` finds a 12-digit rounding
    boundary near value.
    """
    if _digits_settled(value, rel_err):
        return value
    x = exact(*args)
    value = float(x)
    # a boundary between x and its nearest float: one ulp toward x crosses it
    if float(f"{value:.12g}") != float(f"{x:.12g}"):
        value = nextafter(value, inf if x > value else -inf)
    return value


# the wheel mod 30: the residues coprime to 30, the gap from each to the
# next, and the number of them <= r for r = 0 .. 29
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)
_GAPS = (6, 4, 2, 4, 2, 4, 6, 2)
_RANK = bytes(sum(w <= r for w in _WHEEL) for r in range(30))


def _wheel_count(n: int) -> int:
    """The number of 1 <= m <= n coprime to 30, n >= 0; for such an n,
    its index among them + 1, so its sieve entry is 2 + this."""
    return 8 * (n // 30) + _RANK[n % 30]


def prime_sieve(x: int) -> bytearray:
    """The sieve of Eratosthenes over the n <= x coprime to 30, with flags
    for 2, 3 and 5: entries 0, 1 and 2 are 1 when 2, 3 and 5 are <= x, and
    entry 3 + i is 1 exactly when the i-th number coprime to 30 (1, 7, 11,
    13, 17, 19, 23, 29, 31, ...) is prime.  So ``count(1)`` is the number
    of primes <= x, and the sieve holds 8x/30 B.

    Each prime p <= isqrt(x) above 5 zeroes p m for the m >= p coprime to
    30.  p m steps 30 p, that is 8 p entries, as m steps 30, so the zeros
    are 8 strided slices of step 8 p, one from each of the first 8 such m;
    each is one slice assignment from a zero bytearray of its length (x/210
    B at p = 7; a ``bytes`` would be copied into a bytearray first).
    """
    x = max(x, 1)  # below 1: the three flags and the entry of 1, all 0
    size = 3 + _wheel_count(x)
    sieve = bytearray(b"\x01") * size
    sieve[:4] = bytes((x >= 2, x >= 3, x >= 5, 0))
    for i in range(1, _wheel_count(isqrt(x))):
        if sieve[3 + i]:
            p = 30 * (i >> 3) + _WHEEL[i & 7]
            step, m = 8 * p, p
            for k in range(8):
                start = 2 + _wheel_count(p * m)
                sieve[start::step] = bytearray(len(range(start, size, step)))
                m += _GAPS[(i + k) & 7]
    return sieve


def primes_in(sieve: bytearray) -> Iterator[int]:
    """The primes a ``prime_sieve`` marks, ascending, as a stream: its
    flags read against 2, 3 and 5, then its entries against the numbers
    coprime to 30, which accumulate the gaps from 1."""
    return compress(chain((2, 3, 5), accumulate(cycle(_GAPS), initial=1)), sieve)


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


# prime_list_bytes: per number up to x, the sieve (8/30 B) and the zero
# bytes its slices at p = 7 assign from (1/210 B); and the rest: the float
# sum's partials, the decimal fallback and the printed digits
_PRIME_SIEVE_FIXED_BYTES = 64 << 10


def prime_list_bytes(x: int) -> int:
    """Upper estimate of the peak memory of an Euler product over the primes <= x.

    The primes are a stream over one ``prime_sieve``, so the product
    holds the sieve, 8x/30 B, and at its building the zero bytes of one
    slice at p = 7, x/210 B; no list of primes.
    """
    x = max(x, 0)
    return 8 * x // 30 + x // 210 + _PRIME_SIEVE_FIXED_BYTES


def phi_sieve(limit: int) -> array:
    """Totient table phi[0..limit] (phi[0] = 0) as an ``array("i")``.

    One slice update per prime p <= limit, ascending: phi[p::p] -= phi[p::p] // p.
    The division is exact, as before it phi[n] is n times the (1 - 1/q) of
    the primes q < p dividing n, which p still divides.  The array's C int
    holds every entry while limit < 2^31; a larger limit is refused before
    the table exists.
    """
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} does not fit int32")
    from array import array

    phi = array("i", range(limit + 1))
    for p in primes_in(prime_sieve(limit)):
        multiples = phi[p::p]
        phi[p::p] = array("i", map(sub, multiples, map(floordiv, multiples, repeat(p))))
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
