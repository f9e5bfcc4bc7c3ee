"""Prime generation and elementary factorization helpers.

Everything here but ``certified`` is exact integer arithmetic.  The
prime sieve is one odd-only bytearray, ``prime_sieve``, read as a
stream by ``primes_in``: the Euler products of ``analytics``, chi's
table in ``quad_core`` and the plan of the norm sieve read their primes
from it, and no list of primes is kept.  ``least_phi_sieve`` is the one
multiplicative sieve: the least phi_K over the ideals of each norm, for
the character table of any imaginary quadratic field K, yielded as
consecutive numpy int32 blocks whose size grows with the square root of
the limit.  Only the primes up to that root are sieved, so no array
spans the whole range.  ``phi_sieve`` copies the totient blocks (every
prime ramified) into one table; the benchmark times it, and the tests
read both sieves as the oracles of the prime-set searches
(``feasibility.bound_records``, and the window minimum and norm count
behind ``analytics.phi_bound_scan`` and ``landau_liminf_check``).
``nth_prime`` reads the primes those searches reach, one ``is_prime`` at
a time, so they sieve nothing.  ``prime_list_bytes`` estimates peak
memory by arithmetic alone, so a caller can refuse a request before
allocating anything.  ``certified`` settles the 12 printed digits of a
float from its error bound, with an exact fallback near a rounding
boundary.

numpy is imported by the norm sieve when it runs, not with the module,
so everything else here loads without it: ``tcm bound``, every
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

    import numpy as np

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


def sieve_block(limit: int) -> int:
    """Entries per block of ``least_phi_sieve``: the power of two at or
    above 128 isqrt(limit), and at least 2^16.

    Every block makes one slice per prime power of the primes <= isqrt(limit),
    about 2 pi(isqrt(limit)) slices, so scaling the block with the root keeps
    their fixed cost small next to the block's element work.  For the
    field sieve of the tests' scan oracle a block is 2^16 entries at
    x = 10^4 and 2^19 at 10^7; for the tests' sweep oracle at its largest limit,
    n_max(10^5) = 22,561,035, it is 2^20.
    """
    return 1 << max(16, (128 * isqrt(limit) - 1).bit_length())


def _sieve_plan(limit: int, chi: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(p^k, p, gain, parity) for every power p^k <= limit of a prime
    p <= isqrt(limit), by increasing p^k.

    The running product of the gains over k is the local factor of p^k.
    For an inert p, parity is 1 at odd k and -1 at even k, so that its
    running sum over the powers dividing n is 1 exactly when p^k || n for
    an odd k; for other primes it is 0.
    """
    period = len(chi)
    steps = []
    for p in primes_in(prime_sieve(isqrt(limit))):
        kind = int(chi[p % period])
        gains = {1: (p - 1, p - 1), 0: (p - 1,), -1: (1, p * p - 1)}[kind]
        power, k = p, 1
        while power <= limit:
            gain = gains[k - 1] if k <= len(gains) else p
            steps.append((power, p, gain, (-1) ** (k + 1) if kind == -1 else 0))
            power *= p
            k += 1
    steps.sort()
    return steps


def _sieve_block(lo: int, hi: int, steps: list, noninert: np.ndarray | None) -> np.ndarray:
    """The least phi_K for n = lo .. hi - 1, by the steps of ``_sieve_plan``.

    noninert[r] says chi(r) >= 0, over one period of chi; None when no
    prime is inert.
    """
    import numpy as np

    table = np.ones(hi - lo, dtype=np.int32)
    smooth = np.ones(hi - lo, dtype=np.int32)
    # the number of inert primes p <= isqrt(limit) with an odd power p^k || n
    odd = None if noninert is None else np.zeros(hi - lo, dtype=np.int8)
    for power, p, gain, parity in steps:
        if power >= hi:
            break
        # the multiples of p^k in the block, n = 0 aside
        first = max(-(-lo // power), 1) * power - lo
        if first >= len(table):
            continue
        if gain != 1:
            multiples = table[first::power]
            multiples *= gain
        part = smooth[first::power]
        part *= p
        if parity:
            marks = odd[first::power]
            marks += parity
    # n = smooth * q with q = 1 or one prime q > isqrt(limit)
    q = np.arange(lo, hi, dtype=np.int32)
    np.floor_divide(q, smooth, out=q)
    if odd is not None:
        keep = noninert[np.remainder(q, len(noninert), out=smooth)]
        keep &= odd == 0
    np.subtract(q, 1, out=q)
    np.maximum(q, 1, out=q)  # the gain q - 1, and 1 where q = 1 (and at n = 0)
    if odd is not None:
        np.multiply(q, keep, out=q)  # 0 for an inert q or an odd inert power
    table *= q
    if lo == 0:
        table[0] = 0
    return table


def _sieve_blocks(limit: int, chi: np.ndarray, block: int) -> Iterator[tuple[int, np.ndarray]]:
    """``least_phi_sieve`` in blocks of the given number of entries."""
    steps = _sieve_plan(limit, chi)
    noninert = chi >= 0 if chi.min() < 0 else None
    for lo in range(0, limit + 1, block):
        yield lo, _sieve_block(lo, min(limit + 1, lo + block), steps, noninert)


def least_phi_sieve(limit: int, chi: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Least phi_K over the ideals of norm n, for n = 0 .. limit, in blocks.

    Yields (lo, block) with block[i] the value at n = lo + i, as int32, for
    consecutive blocks of ``sieve_block(limit)`` entries.  chi is the
    character table of K, chi(p) = chi[p % len(chi)], of any period.  An
    entry is 0 when no ideal has norm n (and at n = 0).  The least phi_K is
    multiplicative in n, with local factors: split p -> p - 1, split p^e
    (e >= 2) -> p^(e-2)(p-1)^2 (both conjugates present), inert p^(2k) ->
    p^(2k-2)(p^2-1), inert odd powers -> 0, ramified p^e -> p^(e-1)(p-1).
    With every prime ramified (chi = [0], the default None) that is phi(n).  Each
    factor is at most p^e, so every entry is at most n.

    Only the primes p <= r = isqrt(limit) are sieved.  In each block every
    power p^k <= limit makes one in-place slice over its multiples, which
    multiplies the table by a gain whose running product over k is the
    local factor, and a smooth-part array by p; for an inert p it also
    adds 1 at odd k and -1 at even k to an int8 count, which ends nonzero
    exactly where some inert p has an odd exponent.  After the slices an
    entry has at most one prime factor q > r left (q^2 > limit), and it is
    n // smooth; its gain is q - 1, or 0 for an inert q, and the entries
    with a nonzero count are 0.  int32 holds every entry while
    limit < 2^31, and a larger limit is refused (the tests' sweep oracle
    reaches n_max(10^5) = 22,561,035).  Callers cast to int64 before
    squaring.
    """
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} does not fit int32")
    if chi is None:
        import numpy as np

        chi = np.zeros(1, dtype=np.int8)
    return _sieve_blocks(limit, chi, sieve_block(limit))


def phi_sieve(limit: int) -> np.ndarray:
    """Totient table phi[0..limit] (phi[0] = 0) as a numpy int32 array.

    The blocks of ``least_phi_sieve`` with every prime ramified, copied into
    one table: the ramified local factor p^(e-1)(p-1) is phi(p^e).
    """
    import numpy as np

    blocks = least_phi_sieve(limit)  # checks the limit before the table exists
    table = np.empty(limit + 1, dtype=np.int32)
    for lo, block in blocks:
        table[lo : lo + len(block)] = block
    return table
