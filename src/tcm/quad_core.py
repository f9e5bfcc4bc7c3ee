"""Exact arithmetic of negative quadratic discriminants.

Fundamentality, the Kronecker character and its one table over n < size
(a bytearray of chi(n) mod 3, built at the primes), unit counts,
splitting of rational primes, and class numbers computed by two
independent exact methods: counting reduced binary quadratic forms, and
the half-range character sum of Dirichlet's class number formula, which
reads chi over half a period.  The two are kept permanently wired
together so silent corruption of either is detectable.
"""

from __future__ import annotations

import enum
from functools import lru_cache
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
# sieve beside it (8/30 B) and, at p = 2, a slice of every other entry and
# its negation (1/2 B each), 2.27 B in all; the rest is headroom
CHI_TABLE_BYTES_PER_RESIDUE = 4

# bytes.translate table over chi(n) mod 3: negate (1 <-> 2, 0 stays)
_NEGATE_MOD_3 = bytes((0, 2, 1, *range(3, 256)))


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


def class_number(d: int | Discriminant) -> int:
    """h(d) as the count of reduced primitive forms of discriminant d.

    The count is memoized on the value of d (``_form_count``), so callers
    that revisit a few fields row after row count each field's forms once.
    An int d is checked for its shape only: the count needs no
    factorization of |d|, which ``Discriminant`` would make.
    """
    if isinstance(d, Discriminant):
        return _form_count(d.value)
    _check_discriminant_shape(d)
    return _form_count(d)


@lru_cache(maxsize=1024)
def _form_count(value: int) -> int:
    """The reduced primitive forms (a, b, c) of discriminant value, counted
    b-first without building them.

    (Cohen, A Course in Computational Algebraic Number Theory, 5.3): b =
    value mod 2 up to sqrt(|value|/3), q = (b^2 - value)/4, and a runs
    over the divisors of q with b <= a <= sqrt(q), c = q/a.  Each such
    (a, b, c) with gcd 1 counts once when b = 0, a = b or a = c, and twice
    otherwise, since then (a, -b, c) is reduced too.
    """
    count = 0
    for b in range(value % 2, isqrt(-value // 3) + 1, 2):
        q = (b * b - value) // 4
        for a in range(max(b, 1), isqrt(q) + 1):
            if q % a == 0:
                c = q // a
                if gcd(a, b, c) == 1:
                    count += 1 if b == 0 or a == b or a == c else 2
    return count


def class_number_dirichlet(d: int | Discriminant) -> int:
    """h(d) from the half-range character sum of Dirichlet's formula.

    For fundamental d < -4, h = (sum of chi(k) over 1 <= k < |d|/2) / (2 - chi(2))
    (Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    5.3); d = -3 and d = -4 have h = 1.  Only valid for fundamental d (the
    formula needs the primitive character); serves as the independent
    oracle for class_number.  The sum is the count of 1s less the count
    of 2s in ``chi_table`` over k <= |d|/2 (chi(0) = 0, and chi(|d|/2) = 0
    for even d), and table[2] is chi(2) mod 3.  Raises ArithmeticError
    when the sum is not a positive multiple of 2 - chi(2).
    """
    disc = require_fundamental(d)
    m = -disc.value
    if m <= 4:
        return 1
    table = chi_table(disc, m // 2 + 1)
    total = table.count(1) - table.count(2)
    divisor = (2, 1, 3)[table[2]]  # 2 - chi(2)
    if total <= 0 or total % divisor:
        raise ArithmeticError(f"character sum for {disc.value} is not a positive multiple of {divisor}")
    return total // divisor


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
