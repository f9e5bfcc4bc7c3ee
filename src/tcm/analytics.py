"""Numerical product estimates and empirical constant scans.

Mertens products, quadratic-character Euler products, L(1, chi) from the
class number formula, and scans measuring the observed constant in the
uniform lower bound for the ideal Euler function.  Values here are
floating point; everything rigorous lives upstream in the exact modules.

The two products are one ``math.fsum`` over a stream of primes from
one bytearray sieve on a wheel mod 30, with chi(p) read from
``quad_core.chi_table``.  The scans are a search over the prime sets of
the norms for the window minimum, and Lucy's and min_25's recursions
over the values x // k for the number of norms, so neither holds an
array over the norms up to x; both read chi from one ``chi_table`` per
window.
``decimal`` is imported only by the exact fallbacks of the certified
digits, which few values take.
"""

from __future__ import annotations

import math
from itertools import accumulate, count
from typing import TYPE_CHECKING, NamedTuple

from .ideal_arith import FactoredIdeal, min_phi_ideal
from .primes import EULER_GAMMA, certified, factorize, nth_prime, prime_list_bytes, prime_sieve, primes_in
from .quad_core import (
    CHI_TABLE_BYTES_PER_RESIDUE,
    Discriminant,
    chi_table,
    class_number,
    require_fundamental,
    unit_count,
)

if TYPE_CHECKING:
    from decimal import Decimal

# the search's bound is scaled by 1 - _LOG_SLACK: the few ulps by which
# its floats may exceed the exact bound cannot then skip a norm whose
# value ties the best one
_LOG_SLACK = 1e-9
# scan_bytes: the recursions' lists per unit of isqrt(x) (about eight
# lists of ints, each int 32 B and its slot 8 B, one of them being
# rebuilt); chi's table per residue; and the rest
_BYTES_PER_ROOT = 320
_SCAN_FIXED_BYTES = 64 << 10
# chi(n) from its code chi(n) mod 3 in a chi_table
_CHI = (0, 1, -1)
# Euler's constant to 50 digits, the exact side of the Landau target
_EULER_GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"


class ProductEstimate(NamedTuple):
    value: float
    terms: int


class ScanResult(NamedTuple):
    """The minimum over norms in window = (lo, x); norms counts those with an ideal."""

    min_value: float
    argmin_ideal: FactoredIdeal
    window: tuple[int, int]
    norms: int


class LandauCheck(NamedTuple):
    """The tail minimum over norms in window = (lo, x); norms counts those with an ideal."""

    empirical_min_tail: float
    target: float
    window: tuple[int, int]
    norms: int


def _euler_product(x: int, table: bytes, m: int) -> ProductEstimate:
    """prod over the primes p <= x of (1 - chi(p)/p), chi(p) = _CHI[table[p % m]],
    printed right to 12 digits.

    The float is exp of the ``math.fsum`` of the terms log1p(-chi(p)/p), over one pass
    of a prime stream.  Relative to the exact product it is within u (12 M + 4),
    u = 2^-53, for any M above the sum of the |terms|: each term is within 10 u of itself
    (the quotient's rounding, amplified at most 1.45 times by log1p, and 4 ulp for
    log1p), fsum's one rounding adds u times the sum, and exp 2 u; the rest is spare.
    That sum is at most the sum of log(p / (p - 1)), so M needs no second pass: it is
    gamma + loglog x + log(1 + 1/(2 log^2 x)) for x >= 286 (Rosser and Schoenfeld,
    Illinois J. Math. 6, 1962, Theorem 8, (3.30)), else log x, the sum of
    log(n / (n - 1)) over n = 2 .. x.  At x = 10^6, M = 3.21 and the bound is 4.7e-15.
    ``certified`` settles the 12 digits, near a rounding boundary by the product in
    50-digit ``decimal`` (within pi(x) 10^-49 of the exact value) over the same sieve.
    The character of period 1 is 1 at every prime, so its terms read no table.
    """
    sieve = prime_sieve(x)
    if m == 1:
        quotients = (-1 / p for p in primes_in(sieve))
    else:
        quotients = (-_CHI[table[p % m]] / p for p in primes_in(sieve))
    total = math.fsum(map(math.log1p, quotients))
    log_x = math.log(x)
    mass = EULER_GAMMA + math.log(log_x) + math.log1p(0.5 / log_x**2) if x >= 286 else log_x
    bound = 2.0**-53 * (12 * mass + 4)
    value = certified(math.exp(total), bound, _exact_product, sieve, table, m)
    return ProductEstimate(value=value, terms=sieve.count(1))


def _exact_product(sieve: bytearray, table: bytes, m: int) -> Decimal:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        product = Decimal(1)
        for p in primes_in(sieve):
            product *= Decimal(p - _CHI[table[p % m]]) / p
        return product


def mertens_product(x: int) -> ProductEstimate:
    """prod over primes p <= x of (1 - 1/p), with ``_euler_product``'s 12 digits.

    The product of the character chi = 1, one table entry of period 1.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    return _euler_product(x, b"\x01", 1)


def char_euler_product(d: int | Discriminant, x: int) -> ProductEstimate:
    """prod over primes p <= x of (1 - chi(p)/p) for the field character chi.

    Certified to 12 digits like ``mertens_product``; chi is read from
    ``chi_table`` over min(|d|, x + 1) residues, at p mod |d|.
    """
    disc = require_fundamental(d)
    m = -disc.value
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    return _euler_product(x, chi_table(disc, min(m, x + 1)), m)


def product_bytes(d: int, x: int) -> int:
    """Upper estimate of char_euler_product's peak memory, by arithmetic alone.

    The prime sieve up to x and chi's table over min(|d|, x + 1)
    residues.  Accepts any int d, so a caller can size a request before
    validating it.
    """
    return prime_list_bytes(x) + _chi_bytes(d, x)


def _chi_bytes(d: int, x: int) -> int:
    """Upper estimate of the peak memory of ``chi_table`` over the
    min(|d|, x + 1) residues that serve every n <= x."""
    return CHI_TABLE_BYTES_PER_RESIDUE * min(abs(d), max(x, 0) + 1)


def l1_from_class_number(d: int | Discriminant) -> float:
    """L(1, chi) as the exact rearrangement 2 pi h / (w sqrt|d|)."""
    disc = require_fundamental(d)
    h = class_number(disc)
    w = unit_count(disc)
    return 2.0 * math.pi * h / (w * math.sqrt(-disc.value))


def scan_bytes(d: int, x: int) -> int:
    """Upper estimate of the peak memory of phi_bound_scan or landau_liminf_check.

    The lists of the two recursions over the values x // k, at most
    _BYTES_PER_ROOT per unit of isqrt(x); chi's table and its prime
    sieve over min(|d|, x + 1) residues; and a fixed part for the search, whose path holds at most log2(x) frames.
    No array spans the norms up to x.  Accepts any int d, so a caller can
    size a request before validating it.
    """
    return (
        _BYTES_PER_ROOT * math.isqrt(max(x, 1))
        + _chi_bytes(d, x)
        + _SCAN_FIXED_BYTES
    )


def _greedy_factor(i: int, budget: int) -> float:
    """prod of (1 - 1/r) over the sequence p_i, p_(i+1), p_(i+1), p_(i+2),
    p_(i+2), ... (p_i the i-th prime), while the product of the r taken
    stays <= budget.

    A part of a norm made of p_i's second factor and of primes above p_i,
    of size at most budget, has phi / norm at least this: each factor
    1 - 1/r costs at least r of norm, a prime r > p_i gives it at most
    twice (a split r^e, e >= 2) and p_i once more, and an inert r gives
    1 - 1/r^2 for r^2.  Any such multiset of r's, sorted, is termwise at
    least the sequence and has no more terms than fit, so the sequence's
    own prefix is the least product.
    """
    ratio = 1.0
    r = nth_prime(i)
    if r > budget:
        return ratio
    ratio *= 1 - 1 / r
    budget //= r
    while True:
        i += 1
        r = nth_prime(i)
        for _ in range(2):
            if r > budget:
                return ratio
            ratio *= 1 - 1 / r
            budget //= r


def _window_min(disc: Discriminant, lo: int, x: int, table: bytes) -> tuple[float | None, int, int]:
    """(value, n, phi): the least float(minphi(n)) * math.log(math.log(n)) / n
    over the norms n in [lo, x] that have an ideal, the smallest n that
    attains it and phi = minphi(n); (None, 0, 0) when the window has no norm.

    minphi(n), the least phi_K over the ideals of norm n, is multiplicative
    with local factors split p^1 and ramified p^e -> p^(e-1)(p - 1),
    split p^e with e >= 2 -> p^(e-2)(p - 1)^2 (both conjugates), inert
    p^(2k) -> p^(2k-2)(p^2 - 1); an odd inert power is no norm.  The
    search walks the norms depth first by their primes, ascending, with
    inert primes at even exponents only.  The child q of the norm n is
    skipped when (minphi(n)/n) (1 - 1/q) ``_greedy_factor`` loglog(max(lo, nq))
    exceeds the best value so far: every norm under it is at least nq,
    and its phi / norm at least the product.  The bound rises with q, so
    the first child skipped ends the loop.  It is scaled by
    1 - _LOG_SLACK, so the rounding of its floats cannot skip a norm that
    ties.  Each norm's value is the float expression of the ideal-by-ideal
    scan, so the minimum is bit-identical to it.  chi(q) is read from table,
    a ``chi_table`` over min(|d|, x + 1) residues, at q mod |d|.
    """
    period = -disc.value
    best = [math.inf, 0, 0]

    def walk(n: int, phi: int, start: int) -> None:
        if n >= lo:
            value = float(phi) * math.log(math.log(n)) / n
            if value < best[0] or (value == best[0] and n < best[1]):
                best[:] = value, n, phi
        ratio = phi / n
        for i in count(start):
            q = nth_prime(i)
            m = n * q
            if m > x:
                return
            bound = ratio * (1 - 1 / q) * _greedy_factor(i, x // m) * math.log(math.log(max(lo, m)))
            if bound * (1 - _LOG_SLACK) > best[0]:
                return
            chi = _CHI[table[q % period]]
            if chi < 0:
                m, f, step = m * q, phi * (q * q - 1), q * q
            else:
                walk(m, phi * (q - 1), i + 1)
                # the second power: (q - 1)^2 split, q (q - 1) ramified
                m, f, step = m * q, phi * (q - 1) * (q - 1 if chi else q), q
            while m <= x:
                walk(m, f, i + 1)
                m, f = m * step, f * step

    walk(1, 1, 0)
    value, n, phi = best
    return (None, 0, 0) if n == 0 else (value, n, phi)


def _scan_value(phi: int, n: int) -> float:
    """float(phi) * log(log(n)) / n, the window minimum as it is printed,
    ``certified`` against the value in 40-digit ``decimal``.

    phi < 2^53 is exact as a float, so the bound is ``bound_ratio``'s: the
    float log log n is within 2u / ll + 2u of ll = log log n (u = 2^-53,
    log within an ulp), the product and the quotient add u each, and
    u / ll + 2u more is slack.
    """
    ll = math.log(math.log(n))
    return certified(float(phi) * ll / n, 2.0**-53 * (3 / ll + 6), _exact_scan_value, phi, n)


def _exact_scan_value(phi: int, n: int) -> Decimal:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        return phi * Decimal(n).ln().ln() / n


def _chi_sums(disc: Discriminant, table: bytes, values: list[int]) -> list[int]:
    """The sum of chi(n) over 2 <= n <= v for each v of values (0 below 2).

    The sum depends on v mod |d| only, as a period of chi sums to 0, and
    every v mod |d| is below the length of table, a ``chi_table``.  The
    v's are read in the order of v mod |d|, each adding the 1s less the
    2s of the table since the last, as counted by ``bytearray.count``.
    """
    m = -disc.value
    sums = [0] * len(values)
    at = total = 0
    for i in sorted(range(len(values)), key=lambda i: values[i] % m):
        end = values[i] % m + 1
        total += table.count(1, at, end) - table.count(2, at, end)
        at = end
        sums[i] = total - 1 if values[i] else 0
    return sums


def _prime_sums(
    disc: Discriminant, x: int, ramified: list[int], table: bytes
) -> tuple[list[int], list[bool], list[int], list[int]]:
    """(primes, noninert, small, large): the primes p <= r = isqrt(x), for
    each whether chi(p) >= 0, and the number of split and ramified primes
    <= v for v <= r (small[v]) and for v = x // k (large[k], k = 1 .. r).
    ramified lists the primes dividing d, and table is a ``chi_table`` that
    holds chi(n mod |d|) for every n <= x.

    Lucy's recursion gives pi(v) and pi_chi(v) = sum of chi(p) over p <= v
    at every v = x // k; the split and ramified primes <= v number
    (pi(v) + pi_chi(v) + #{p | d : p <= v}) / 2.

    Each prime p <= r removes, from every v >= p^2, its multiples whose
    least prime factor is p: S(v) -= f(p) (S(v // p) - S(p - 1)), with
    f = 1 for pi and f = chi for pi_chi (chi is completely
    multiplicative).  The start S(v) = v - 1 for pi, and for pi_chi the
    sum of chi(n) over 2 <= n <= v, from ``_chi_sums``.
    """
    r = math.isqrt(x)
    m = -disc.value
    top = [0, *(x // k for k in range(1, r + 1))]
    chi_sums = _chi_sums(disc, table, [*range(r + 1), *top])
    small_chi, large_chi = chi_sums[: r + 1], chi_sums[r + 1 :]
    del chi_sums
    small_pi = [max(v - 1, 0) for v in range(r + 1)]
    large_pi = [max(v - 1, 0) for v in top]
    primes, noninert = [], []
    for p in range(2, r + 1):
        if small_pi[p] == small_pi[p - 1]:
            continue  # a multiple of a smaller prime
        c = _CHI[table[p % m]]
        primes.append(p)
        noninert.append(c >= 0)
        p2 = p * p
        last = min(r, x // p2)
        inner = min(last, r // p)  # for k <= inner, v // p = x // (kp) is large[kp]
        for large, small, f in ((large_pi, small_pi, 1), (large_chi, small_chi, c)):
            if not f:
                continue
            base = small[p - 1]
            large[1 : inner + 1] = [
                a - f * (b - base) for a, b in zip(large[1 : inner + 1], large[p : inner * p + 1 : p])
            ]
            large[inner + 1 : last + 1] = [
                large[k] - f * (small[x // (k * p)] - base) for k in range(inner + 1, last + 1)
            ]
            small[p2:] = [small[v] - f * (small[v // p] - base) for v in range(p2, r + 1)]

    def good(vs, pis, chi_sums):
        return [(a + b + sum(q <= v for q in ramified)) // 2 for v, a, b in zip(vs, pis, chi_sums)]

    return primes, noninert, good(range(r + 1), small_pi, small_chi), good(top, large_pi, large_chi)


def _norm_count(disc: Discriminant, x: int, ramified: list[int], table: bytes) -> int:
    """The number of n in [1, x] that are the norm of an ideal; ramified
    lists the primes dividing d, and table is the ``chi_table`` of ``_prime_sums``.

    The indicator of norms is multiplicative: 1 at every power of a split
    or ramified prime, and at the even powers of an inert one.  It is
    summed by the second recursion of min_25's method: the norms in
    [2, v] whose least prime is at least p_j are the split and ramified
    primes in [p_j, v], and for each p_k >= p_j with p_k^2 <= v and each
    e with p_k^(e+1) <= v, p_k^e t for the norms t in [2, v // p_k^e] with
    least prime above p_k (when p_k^e is a norm), and p_k^(e+1) (when it
    is one).  Every v it reaches is some x // k.
    """
    primes, noninert, small, large = _prime_sums(disc, x, ramified, table)
    r = len(small) - 1
    before = [0, *accumulate(noninert)]  # split and ramified primes among primes[:j]

    def norms_from(v: int, j: int) -> int:
        total = (small[v] if v <= r else large[x // v]) - before[j]
        for k in range(j, len(primes)):
            p = primes[k]
            if p * p > v:
                break
            power, e = p, 1
            while power * p <= v:
                if noninert[k] or not e % 2:
                    total += norms_from(v // power, k + 1)
                if noninert[k] or e % 2:
                    total += 1
                power *= p
                e += 1
        return total

    return 1 + norms_from(x, 0)


def _window(disc: Discriminant, lo: int, x: int) -> tuple[float | None, int, int]:
    """(certified minimum, its norm, the number of norms) over [lo, x], lo >= 3,
    with chi read from one ``chi_table`` over min(|d|, x + 1) residues."""
    # no table holds x: the cap stands in for a time bound, as the count
    # of norms takes O(x^(3/4)) steps and chi's table min(|D|, x + 1)
    if x >= 2**31:
        raise ValueError(f"need x < 2^31, got {x}")
    table = chi_table(disc, min(-disc.value, x + 1))
    value, n, phi = _window_min(disc, lo, x, table)
    ramified = [p for p, _ in factorize(-disc.value)]
    norms = _norm_count(disc, x, ramified, table) - _norm_count(disc, lo - 1, ramified, table)
    return (None if value is None else _scan_value(phi, n)), n, norms


def phi_bound_scan(d: int | Discriminant, x: int) -> ScanResult:
    """Minimum of phi_K(c) * loglog|c| / |c| over ideals with 3 <= |c| <= x.

    Multiplied by the class number this is the observed constant in the
    uniform lower bound phi_K(c) >= (C/h) |c| / loglog|c|.  The minimum
    over the norms comes from the search of ``_window_min`` and is printed
    through ``_scan_value``; ties go to the smallest norm, and within it to
    the ideal ``min_phi_ideal`` names.  x < 2^31.
    """
    disc = require_fundamental(d)
    if x < 3:
        raise ValueError(f"need x >= 3, got {x}")
    best, arg, norms = _window(disc, 3, x)
    if best is None:
        raise ValueError(f"no ideals with norm in [3, {x}] for discriminant {disc.value}")
    return ScanResult(
        min_value=best,
        argmin_ideal=min_phi_ideal(disc, arg),
        window=(3, x),
        norms=norms,
    )


def landau_liminf_check(d: int | Discriminant, x: int) -> LandauCheck:
    """Tail minimum of phi_K(a) loglog|a| / |a| against e^-gamma / L(1, chi).

    The tail runs over norms in [x/10, x], x < 2^31; the comparison is
    directional, not a convergence proof, and the tail minimum mostly
    sits below the target: over the 62 fundamental |D| <= 200 it is below
    for 61 fields at x = 10^3, 60 at 10^4, 57 at 10^5 and 56 at 10^6, at
    0.46 to 1.08 times the target.
    """
    disc = require_fundamental(d)
    if x < 100:
        raise ValueError(f"need x >= 100, got {x}")
    lo = x // 10
    best, _, norms = _window(disc, lo, x)
    return LandauCheck(empirical_min_tail=best, target=_landau_target(disc), window=(lo, x), norms=norms)


def _landau_target(disc: Discriminant) -> float:
    """e^-gamma / L(1, chi) = e^-gamma w sqrt|d| / (2 pi h), the Landau
    target as it is printed, ``certified`` against the value in 40-digit
    ``decimal``.

    The float is exp(-gamma) / ``l1_from_class_number``.  With u = 2^-53:
    the float gamma is within u/2 of gamma, so exp(-gamma) is within u/2
    plus exp's ulp (2u relative) of its value; pi, the product by h, the
    square root of the exact |d|, the product by w and the quotient add u
    each to L(1, chi); the last quotient adds u; that is 8.5 u, and 12 u
    leaves spare.
    """
    value = math.exp(-EULER_GAMMA) / l1_from_class_number(disc)
    return certified(value, 2.0**-53 * 12, _exact_landau_target, disc)


def _exact_landau_target(disc: Discriminant) -> Decimal:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        numerator = (-Decimal(_EULER_GAMMA_50)).exp() * unit_count(disc) * Decimal(-disc.value).sqrt()
        return numerator / (2 * _decimal_pi() * class_number(disc))


def _decimal_pi() -> Decimal:
    """pi at the precision of the current ``decimal`` context, by Machin's
    formula pi = 16 arctan(1/5) - 4 arctan(1/239), each arctan(1/x) the sum
    of its Taylor series until a term no longer moves it, carried 5 digits
    past the context."""
    from decimal import Decimal, localcontext

    def arctan_of_inverse(x: int) -> Decimal:
        power = total = Decimal(1) / x
        k = 1
        while True:
            power /= -x * x
            k += 2
            following = total + power / k
            if following == total:
                return total
            total = following

    with localcontext() as ctx:
        ctx.prec += 5
        pi = 16 * arctan_of_inverse(5) - 4 * arctan_of_inverse(239)
    return +pi


__all__ = [
    "LandauCheck",
    "ProductEstimate",
    "ScanResult",
    "char_euler_product",
    "l1_from_class_number",
    "landau_liminf_check",
    "mertens_product",
    "phi_bound_scan",
    "product_bytes",
    "scan_bytes",
]
