"""Exact arithmetic of negative quadratic discriminants.

Fundamentality, the Kronecker character and its one table over n < size
(a bytearray of chi(n) mod 3, built at the primes), unit counts,
splitting of rational primes, and class numbers computed by two
independent exact methods: counting reduced binary quadratic forms, and
the finite character sum of the analytic class number formula.  The two
are kept permanently wired together so silent corruption of either is
detectable.

Everything here is Python ints and bytearrays, so the module loads no
numpy.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .primes import is_prime, prime_sieve, primes_in, squarefree


class Splitting(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"

    @staticmethod
    def of(chi: int) -> "Splitting":
        """How p splits from chi(p) = 1, -1 or 0: split, inert or ramified."""
        return _SPLITTING_BY_CHI[chi]


# indexed by chi(p): 0 ramified, 1 split, -1 (the last entry) inert
_SPLITTING_BY_CHI = (Splitting.RAMIFIED, Splitting.SPLIT, Splitting.INERT)


class _DiscriminantFields(NamedTuple):
    value: int
    is_fundamental: bool


class Discriminant(_DiscriminantFields):
    """A negative integer congruent to 0 or 1 mod 4.

    Validated once, on construction from the value alone, which also
    derives is_fundamental.
    """

    __slots__ = ()

    def __new__(cls, value: int):
        return super().__new__(cls, value, is_fundamental(value))

    def __getnewargs__(self) -> tuple[int]:
        return (self.value,)


def _check_discriminant_shape(value: int) -> None:
    if value >= 0:
        raise ValueError(f"discriminant must be negative, got {value}")
    if value % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {value}")


@lru_cache(maxsize=1024)
def is_fundamental(value: int) -> bool:
    """Whether value is the discriminant of a maximal order.

    Raises ValueError if value is not a valid discriminant at all
    (nonnegative, or not 0/1 mod 4); returns False for valid
    non-maximal order discriminants such as -12.  Memoized on the value,
    since every public function that takes an int discriminant validates
    it again, and the test factors |value|.
    """
    _check_discriminant_shape(value)
    if value % 4 == 1:
        return squarefree(-value)
    q = value // 4
    return squarefree(-q) and q % 4 in (2, 3)


def as_discriminant(d: int | Discriminant) -> Discriminant:
    """Coerce an int (validating it) or pass a Discriminant through."""
    if isinstance(d, Discriminant):
        return d
    return Discriminant(d)


def require_fundamental(d: int | Discriminant) -> Discriminant:
    disc = as_discriminant(d)
    if not disc.is_fundamental:
        raise ValueError(f"{disc.value} is not a fundamental discriminant")
    return disc


def kronecker(d: int | Discriminant, n: int) -> int:
    """Kronecker symbol (d|n) for n >= 1.

    Completely multiplicative in n, with period dividing |d|.  Implemented
    by the reciprocity recursion with the explicit rule at 2: (d|2) is 0
    for even d, +1 for d = +-1 mod 8 and -1 for d = +-3 mod 8.
    """
    a = as_discriminant(d).value
    if n < 1:
        raise ValueError(f"kronecker symbol defined here for n >= 1, got {n}")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi recursion; n odd >= 1, top argument reduced mod n.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# bytes chi_table holds per residue at its peak: the table, the prime
# sieve beside it (1/2 B) and, at p = 2, a slice of every other entry and
# its negation (1/2 B each), 2.5 B in all; the rest is headroom
CHI_TABLE_BYTES_PER_RESIDUE = 4

# bytes.translate tables over chi(n) mod 3: negate (1 <-> 2, 0 stays), and
# select the 1s or the 2s as 1
_NEGATE_MOD_3 = bytes((0, 2, 1, *range(3, 256)))
_SELECT_1 = bytes((0, 1)) + bytes(254)
_SELECT_2 = bytes((0, 0, 1)) + bytes(253)


def chi_table(d: int | Discriminant, size: int) -> bytearray:
    """chi(n) mod 3, that is 2 where chi(n) = -1, for n = 0 .. size - 1, size >= 2.

    chi = (d|.) is completely multiplicative.  The table starts at 1 (0 at
    n = 0); each prime p < size, with chi(p) by Euler's criterion, zeroes
    the multiples of p when chi(p) = 0, and negates the multiples of each
    power p^k < size when chi(p) = -1, so every entry ends at the product
    of chi(p)^e over p^e || n.  The primes come from ``primes.prime_sieve``.
    Each step is one slice, so the Python steps number about pi(size),
    not size.  chi has period |d|, so size = min(|d|, x + 1) serves every
    n <= x through n mod |d|.
    """
    disc = as_discriminant(d)
    table = bytearray(b"\x01") * size
    table[0] = 0
    for p in primes_in(prime_sieve(size - 1)):
        # Euler's criterion at an odd p: d^((p - 1)/2) is 1, p - 1 or 0 mod p
        c = pow(disc.value % p, p >> 1, p) if p > 2 else kronecker(disc, 2) % 3
        if c == 0:
            table[p::p] = bytearray(len(range(p, size, p)))
        elif c != 1:
            power = p
            while power < size:
                table[power::power] = table[power::power].translate(_NEGATE_MOD_3)
                power *= p
    return table


def _reduced_triples(value: int) -> Iterator[tuple[int, int, int]]:
    """The reduced primitive forms (a, b, c) of discriminant value with b >= 0.

    b-first (Cohen, A Course in Computational Algebraic Number Theory,
    5.3): b = value mod 2 up to sqrt(|value|/3), q = (b^2 - value)/4, and
    a runs over the divisors of q with b <= a <= sqrt(q), c = q/a.  The
    form (a, -b, c) is reduced too exactly when 0 < b < a < c.
    """
    for b in range(value % 2, isqrt(-value // 3) + 1, 2):
        q = (b * b - value) // 4
        for a in range(max(b, 1), isqrt(q) + 1):
            if q % a == 0 and gcd(gcd(a, b), q // a) == 1:
                yield a, b, q // a


def class_number(d: int | Discriminant) -> int:
    """h(d) as the count of reduced primitive forms of discriminant d.

    Counted without building the forms: (a, b, c) counts once when
    b = 0, a = b or a = c, and twice (for (a, +-b, c)) otherwise.  The
    count is memoized on the value of d (``_form_count``), so callers that
    revisit a few fields row after row count each field's forms once.
    """
    return _form_count(as_discriminant(d).value)


@lru_cache(maxsize=1024)
def _form_count(value: int) -> int:
    return sum(1 if b == 0 or a == b or a == c else 2 for a, b, c in _reduced_triples(value))


def class_number_dirichlet(d: int | Discriminant) -> int:
    """h(d) from the finite character sum (w / 2|d|) * |sum chi(k) k|.

    Only valid for fundamental d (the sum as written needs the primitive
    character); serves as the independent oracle for class_number.  The
    sum over k = 1 .. |d| - 1 is the sum of the k with chi(k) = 1 less
    that of the k with chi(k) = -1, each read off ``chi_table`` over one
    period by ``bytes.translate`` and ``compress`` (chi(|d|) = 0).
    """
    disc = require_fundamental(d)
    m = -disc.value
    table = chi_table(disc, m)
    total = sum(compress(range(m), table.translate(_SELECT_1))) - sum(
        compress(range(m), table.translate(_SELECT_2))
    )
    w = unit_count(disc)
    num = w * abs(total)
    if num % (2 * m):
        raise ArithmeticError(f"character sum for {disc.value} is not an integer multiple")
    return num // (2 * m)


def unit_count(d: int | Discriminant) -> int:
    """Number of roots of unity: 6 for -3, 4 for -4, else 2."""
    value = as_discriminant(d).value
    if value == -3:
        return 6
    if value == -4:
        return 4
    return 2


def splitting_type(d: int | Discriminant, p: int) -> Splitting:
    """Behavior of the rational prime p: split, inert, or ramified."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Splitting.of(kronecker(d, p))


def fundamental_discriminants(bound: int) -> list[int]:
    """All fundamental d with |d| <= bound, sorted by |d|.

    -d is m = 3 mod 4 squarefree, or m = 4q with q = 1 or 2 mod 4
    squarefree.  Both are read off one squarefree sieve up to bound, a
    bytearray zeroed at the multiples of each p^2 by slice assignment: no
    value is factored.
    """
    if bound < 3:
        return []
    squarefree_at = bytearray(b"\x01") * (bound + 1)
    for p in range(2, isqrt(bound) + 1):
        if is_prime(p):
            squarefree_at[p * p :: p * p] = bytes(bound // (p * p))
    return [
        -m
        for m in range(3, bound + 1)
        if (m % 4 == 3 and squarefree_at[m]) or (m % 4 == 0 and m // 4 % 4 in (1, 2) and squarefree_at[m // 4])
    ]


__all__ = [
    "CHI_TABLE_BYTES_PER_RESIDUE",
    "Discriminant",
    "Splitting",
    "as_discriminant",
    "chi_table",
    "class_number",
    "class_number_dirichlet",
    "fundamental_discriminants",
    "is_fundamental",
    "kronecker",
    "require_fundamental",
    "splitting_type",
    "unit_count",
]
