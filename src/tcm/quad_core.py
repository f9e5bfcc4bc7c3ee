"""Exact arithmetic of negative quadratic discriminants.

Fundamentality, the Kronecker character chi = (d|.) at one prime by
Euler's criterion (which the chi table, the splitting of primes,
``ideal_arith`` and ``feasibility`` read; the reciprocity recursion for
chi at any n is a test oracle, in ``tests/conftest.py``), the one table
of chi over n < size (a bytearray of chi(n) mod 3, built at the primes),
unit counts, splitting of rational primes, and class numbers computed
by two independent exact methods: counting reduced binary quadratic
forms, a-first for a < 64 from residue tables built at the first count
(for the a with 4a^2 <= |d|, the entry at d mod 4a of a table of the
b in (-a, a] by b^2 mod 4a, summed in one C-level pass; above, one
``bytes.count`` per a over a table of b^2 mod 4a) and b-first by
divisors above, and the half-range character sum of Dirichlet's class
number formula, which reads chi over half a period.  The two are kept
permanently wired together so silent corruption of either is detectable.
"""

from __future__ import annotations

import enum
from functools import cache, lru_cache
from itertools import repeat
from math import gcd, isqrt, prod
from operator import getitem, mod
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


def _chi_at_prime(value: int, p: int) -> int:
    """chi(p) = (value|p), the Kronecker symbol at a prime p, for a
    discriminant value: the one route to chi at a prime in the package.

    Euler's criterion at an odd p: value^((p - 1)/2) is 1, p - 1 or 0 mod
    p.  At 2 the Kronecker symbol's own rule: 0 for even value, +1 for
    value = +-1 mod 8 and -1 for value = +-3 mod 8.
    """
    if p == 2:
        return 0 if value % 2 == 0 else 1 if value % 8 in (1, 7) else -1
    c = pow(value % p, p >> 1, p)
    return c if c < 2 else -1


# bytes chi_table holds per residue at its peak: the table, the prime
# sieve beside it (8/30 B) and, at p = 2, a slice of every other entry and
# its negation (1/2 B each), 2.27 B in all; the rest is headroom
CHI_TABLE_BYTES_PER_RESIDUE = 4

# bytes.translate table over chi(n) mod 3: negate (1 <-> 2, 0 stays)
_NEGATE_MOD_3 = bytes((0, 2, 1, *range(3, 256)))


def chi_table(d: int | Discriminant, size: int) -> bytearray:
    """chi(n) mod 3, that is 2 where chi(n) = -1, for n = 0 .. size - 1, size >= 2.

    chi = (d|.) is completely multiplicative.  The table starts at 1 (0 at
    n = 0); each prime p < size, with chi(p) from ``_chi_at_prime``,
    zeroes the multiples of p when chi(p) = 0, and negates the multiples
    of each power p^k < size when chi(p) = -1, so every entry ends at the
    product of chi(p)^e over p^e || n.  The primes come from
    ``primes.prime_sieve``.  Each step is one slice, so the Python steps
    number about pi(size), not size.  chi has period |d|, so size =
    min(|d|, x + 1) serves every n <= x through n mod |d|.
    """
    disc = as_discriminant(d)
    table = bytearray(b"\x01") * size
    table[0] = 0
    for p in primes_in(prime_sieve(size - 1)):
        c = _chi_at_prime(disc.value, p)
        if c == 0:
            table[p::p] = bytearray(len(range(p, size, p)))
        elif c < 0:
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


# a < A_FIRST is counted a-first from the residue tables, a >= A_FIRST b-first
A_FIRST = 64

_ODD_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_ODD_PRIMORIAL = prod(_ODD_SMALL_PRIMES)
_ODD_PRIMORIAL_SQUARED = _ODD_PRIMORIAL**2


# 4a for a = 1 .. A_FIRST - 1, the moduli of the residue tables
_FOUR_A = tuple(range(4, 4 * A_FIRST, 4))


@cache
def _square_residues() -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The residue tables of the a-first count, one bytes of each per
    a = 1 .. A_FIRST - 1: b^2 mod 4a for b = 0 .. a (every entry is below
    4a <= 252), and the count table of 4a entries whose entry r is the
    number of b in (-a, a] with b^2 = r (mod 4a), that is
    2 #{0 <= b <= a : b^2 = r} - [r = 0] - [a^2 = r] (at most 12; 8,064 B
    in all).  Built at the first form count, not on import: it takes about
    0.3 ms, which callers that count no forms should not pay."""
    squares = tuple(bytes(b * b % (4 * a) for b in range(a + 1)) for a in range(1, A_FIRST))
    counts = []
    for a, table in zip(range(1, A_FIRST), squares):
        count = [0] * (4 * a)
        for r in table:
            count[r] += 2
        count[0] -= 1
        count[table[a]] -= 1
        counts.append(bytes(count))
    return squares, tuple(counts)


@lru_cache(maxsize=1024)
def _form_count(value: int) -> int:
    """The reduced primitive forms (a, b, c) of discriminant value, counted
    without building them: a-first for a < A_FIRST, b-first above.

    (Cohen, A Course in Computational Algebraic Number Theory, 5.3.)  A
    form with a >= A_FIRST is found b-first: b = value mod 2 up to
    sqrt(|value|/3), q = (b^2 - value)/4, and a runs over the divisors
    of q with max(b, A_FIRST) <= a <= sqrt(q), c = q/a.  Each such
    (a, b, c) with gcd 1 counts once when b = 0, a = b or a = c, and
    twice otherwise, since then (a, -b, c) is reduced too.

    The forms with a < A_FIRST are counted by ``_all_forms_a_first``,
    primitive or not.  A form of content g is g times a primitive form of
    discriminant value/g^2 with a/g in place of a, so the primitive ones
    are the Moebius sum over the squarefree g < A_FIRST whose g^2 divides
    value with value/g^2 = 0 or 1 mod 4 (the g dividing the conductor):
    mu(g) times the forms of value/g^2 with a <= (A_FIRST - 1) // g.  The
    odd such g are products of the odd p < A_FIRST with p^2 | value, and
    one gcd with the square of their product finds whether there is any;
    2 qualifies iff |value| = 0 or 12 mod 16.  The a-first count is not
    memoized, so this memo sees one call per discriminant.
    """
    m = -value
    a_top = isqrt(m // 3)
    count = 0
    for b in range(value % 2, a_top + 1 if a_top >= A_FIRST else 0, 2):
        q = (b * b + m) // 4
        for a in range(max(b, A_FIRST), isqrt(q) + 1):
            if q % a == 0:
                c = q // a
                if gcd(a, b, c) == 1:
                    count += 1 if b == 0 or a == b or a == c else 2
    contents = [(1, 1), (2, -1)] if m % 16 in (0, 12) else [(1, 1)]
    if _ODD_PRIMORIAL % gcd(m, _ODD_PRIMORIAL_SQUARED):  # some odd p < A_FIRST has p^2 | m
        for p in _ODD_SMALL_PRIMES:
            if m % (p * p) == 0:
                contents += [(g * p, -mu) for g, mu in contents if g * p < A_FIRST]
    for g, mu in contents:
        count += mu * _all_forms_a_first(value // (g * g), (A_FIRST - 1) // g)
    return count


def _all_forms_a_first(value: int, a_max: int) -> int:
    """The reduced forms (a, b, c) of discriminant value with a <= a_max <
    A_FIRST, primitive or not, read from the residue tables.

    For each a <= sqrt(|value|/3) the b in (-a, a] with b^2 = value
    (mod 4a) give c = (b^2 - value)/(4a), and c >= a iff |b| >= b0 =
    ceil(sqrt(max(0, 4a^2 - |value|))).  The a with 4a^2 <= |value| (about
    87% of them) have b0 = 0, and there b = 0 is the only b with c = a, so
    each b in (-a, a] gives one reduced form: their number is the entry at
    value mod 4a of a's count table, all of them summed in one C-level
    pass.  Above, the count of b in [b0, a] in the table of b^2 mod 4a
    counts each twice, for +-b, less once for b = a and for the b = b0
    with c = a (b0^2 = 4a^2 - |value|; -b0 is not reduced either), each b
    once.  b = a is always in range: a <= sqrt(|value|/3) gives b0 <= a.
    """
    m = -value
    top = min(a_max, isqrt(m // 3))
    wide = min(top, isqrt(m) // 2)  # the last a with b0 = 0
    residues, counts = _square_residues()
    count = sum(map(getitem, counts, map(mod, repeat(value, wide), _FOUR_A)))
    for a in range(wide + 1, top + 1):
        squares, r, excess = residues[a - 1], value % (4 * a), 4 * a * a - m
        b0 = isqrt(excess - 1) + 1
        count += 2 * squares.count(r, b0) - (squares[a] == r) - (b0 < a and b0 * b0 == excess)
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
    """Behavior of the rational prime p: split, inert, or ramified, from
    chi(p) by ``_chi_at_prime``."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Splitting.of(_chi_at_prime(as_discriminant(d).value, p))


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
    "require_fundamental",
    "splitting_type",
    "unit_count",
]
