"""Exact arithmetic of negative quadratic discriminants.

Fundamentality, the Kronecker character, unit counts, splitting of
rational primes, and class numbers computed by two independent exact
methods: counting reduced binary quadratic forms, and the finite
character sum of the analytic class number formula.  The two are kept
permanently wired together so silent corruption of either is detectable.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .primes import is_prime, prime_array, squarefree


class Splitting(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Discriminant:
    """A negative integer congruent to 0 or 1 mod 4.

    Validated once, on construction, which also derives is_fundamental.
    """

    value: int
    is_fundamental: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "is_fundamental", is_fundamental(self.value))

    def __int__(self) -> int:
        return self.value


def _check_discriminant_shape(value: int) -> None:
    if value >= 0:
        raise ValueError(f"discriminant must be negative, got {value}")
    if value % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {value}")


def is_fundamental(value: int) -> bool:
    """Whether value is the discriminant of a maximal order.

    Raises ValueError if value is not a valid discriminant at all
    (nonnegative, or not 0/1 mod 4); returns False for valid
    non-maximal order discriminants such as -12.
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


# bytes character_table holds per residue at its peak: the int8 table and
# the prime sieve's two bool tables (3 B), and the int64 array of the
# primes below |d| (8 pi(|d|) / |d| B, at most 2 B from |d| = 200 on)
CHARACTER_TABLE_BYTES_PER_RESIDUE = 5


def character_table(d: int | Discriminant) -> np.ndarray:
    """chi(r) for r = 0 .. |d|-1 as an int8 array (the character has period |d|).

    Built by complete multiplicativity: a table of ones, chi(0) = 0, and
    for each prime p < |d| the factor chi(p) multiplied into the
    multiples of every power p^k < |d|, one slice per power.  That is one
    ``kronecker`` call per prime rather than one per residue.
    """
    disc = require_fundamental(d)
    m = -disc.value
    chi = np.ones(m, dtype=np.int8)
    chi[0] = 0
    for p in map(int, prime_array(m - 1)):
        sign = kronecker(disc, p)
        if sign == 0:
            chi[p::p] = 0
        elif sign == -1:
            q = p
            while q < m:
                chi[q::q] *= -1
                q *= p
    return chi


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
    b = 0, a = b or a = c, and twice (for (a, +-b, c)) otherwise.
    """
    return sum(
        1 if b == 0 or a == b or a == c else 2
        for a, b, c in _reduced_triples(as_discriminant(d).value)
    )


def class_number_dirichlet(d: int | Discriminant) -> int:
    """h(d) from the finite character sum (w / 2|d|) * |sum chi(k) k|.

    Only valid for fundamental d (the sum as written needs the primitive
    character); serves as the independent oracle for class_number.  The
    sum over k = 1 .. |d| is one int64 dot product with the character
    table (chi(|d|) = chi(0) = 0, and |sum| <= |d|^2 / 2).
    """
    disc = require_fundamental(d)
    m = -disc.value
    total = int(character_table(disc).astype(np.int64) @ np.arange(m, dtype=np.int64))
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
    chi = kronecker(d, p)
    if chi == 1:
        return Splitting.SPLIT
    if chi == -1:
        return Splitting.INERT
    return Splitting.RAMIFIED


def fundamental_discriminants(bound: int) -> list[int]:
    """All fundamental d with |d| <= bound, sorted by |d|."""
    out = []
    for value in range(-3, -bound - 1, -1):
        if value % 4 in (0, 1) and is_fundamental(value):
            out.append(value)
    return out


__all__ = [
    "CHARACTER_TABLE_BYTES_PER_RESIDUE",
    "Discriminant",
    "Splitting",
    "as_discriminant",
    "character_table",
    "class_number",
    "class_number_dirichlet",
    "fundamental_discriminants",
    "is_fundamental",
    "kronecker",
    "require_fundamental",
    "splitting_type",
    "unit_count",
]
