"""Integral ideals of imaginary quadratic maximal orders, in factored form.

An ideal is carried as its multiset of prime-ideal factors; every
quantity needed downstream (norm, the ideal Euler function, splitting
data) depends only on that factorization, so there is no element-level
ideal arithmetic here.  ``brute_force_phi`` counts the units of O/nO on
the residue-ring scan of ``galois_image``; it shares nothing with the
local-factor formula ``phi_K_of_N`` and so checks it.  It imports that
scan when it runs, so ``tcm phi`` past the cap, ``scan`` and ``landau``,
which read this module but scan nothing, do not pay the 0.3 ms or so of
``galois_image``'s import.

The least phi_K over the ideals of a norm is multiplicative in the norm;
``analytics`` searches it over prime sets for the scans' window minimum,
and ``min_phi_ideal`` names the ideal that attains it at one norm.
``ideals_up_to_norm`` lists the ideals themselves; it is the oracle of
the tests' norm sieve, which tabulates the least phi_K per norm and is
in turn the tests' oracle of the search.
"""

from __future__ import annotations

from typing import NamedTuple

from .primes import cached_primes, factorize
from .quad_core import Discriminant, Splitting, _chi_at_prime, as_discriminant, require_fundamental

BRUTE_FORCE_CAP = 300


class PrimeIdeal(NamedTuple):
    """A prime of the maximal order, keyed by the rational prime below it.

    conjugate_index distinguishes the two conjugate primes above a split
    rational prime; it is 0 for inert and ramified primes.  No two primes
    of a field share both, so the tuple order is (p, conjugate_index).
    """

    p: int
    conjugate_index: int
    splitting: Splitting
    norm: int


class FactoredIdeal(NamedTuple):
    """A nonzero integral ideal as (prime ideal, exponent) pairs in tuple order."""

    disc: Discriminant
    factors: tuple[tuple[PrimeIdeal, int], ...]

    def __str__(self) -> str:
        if not self.factors:
            return "(1)"
        parts = []
        for P, e in self.factors:
            tag = f"P{P.p}" if P.splitting != Splitting.SPLIT else f"P{P.p}.{P.conjugate_index}"
            parts.append(tag if e == 1 else f"{tag}^{e}")
        return "*".join(parts)


def _primes_over(disc: Discriminant, p: int) -> list[PrimeIdeal]:
    """The prime ideals over a p known to be prime (no primality test), by conjugate_index."""
    kind = Splitting.of(_chi_at_prime(disc.value, p))
    if kind is Splitting.SPLIT:
        return [PrimeIdeal(p, 0, kind, p), PrimeIdeal(p, 1, kind, p)]
    return [PrimeIdeal(p, 0, kind, p * p if kind is Splitting.INERT else p)]


def principal_ideal(d: int | Discriminant, n: int) -> FactoredIdeal:
    """Factorization of the principal ideal generated by the integer n >= 1.

    A split p^e contributes both conjugates with exponent e; a ramified
    p^e contributes the unique prime with exponent 2e.  The factors come
    in order as built: ``factorize`` yields p ascending.
    """
    disc = require_fundamental(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    factors: list[tuple[PrimeIdeal, int]] = []
    for p, e in factorize(n):
        for P in _primes_over(disc, p):
            factors.append((P, 2 * e if P.splitting is Splitting.RAMIFIED else e))
    return FactoredIdeal(disc=disc, factors=tuple(factors))


def ideal_norm(a: FactoredIdeal) -> int:
    result = 1
    for P, e in a.factors:
        result *= P.norm**e
    return result


def phi_K(a: FactoredIdeal) -> int:
    """Number of invertible residues mod a: prod over primes of q^(e-1)(q-1)."""
    result = 1
    for P, e in a.factors:
        result *= P.norm ** (e - 1) * (P.norm - 1)
    return result


def phi_K_of_N(d: int | Discriminant, n: int) -> int:
    """phi_K of the principal ideal (n), as a product of local factors.

    Over p^e || n the factor is p^(2e-2) (p - 1) (p - chi(p)): (p^(e-1)(p-1))^2
    for split p, p^(2e-2) (p^2 - 1) for inert p, and p^(2e-1) (p - 1) for
    ramified p (chi(p) = 0).
    """
    disc = require_fundamental(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _phi_K_local(factorize(n), lambda p: _chi_at_prime(disc.value, p))


def _phi_K_local(factors: list[tuple[int, int]], chi) -> int:
    """phi_K((n)) from the factorization of n and chi(p) at its primes:
    the product of p^(2e-2) (p - 1) (p - chi(p)) over p^e || n."""
    result = 1
    for p, e in factors:
        result *= p ** (2 * e - 2) * (p - 1) * (p - chi(p))
    return result


def brute_force_phi(d: int | Discriminant, n: int) -> int:
    """Count invertible residues of O/nO by a scan of all n^2 pairs.

    The number of unit pairs in ``galois_image._unit_mask``: the pair
    (x, y) in the integral basis 1, (D + sqrt(D))/2 is invertible iff its
    norm is a unit mod n.  Accepts any valid (also non-maximal) discriminant.
    """
    disc = as_discriminant(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"n={n} exceeds cap {BRUTE_FORCE_CAP}")
    from .galois_image import _unit_mask

    return _unit_mask(disc.value, n).count(1)


def ideals_up_to_norm(d: int | Discriminant, x: int):
    """Yield every integral ideal of norm <= x exactly once.

    Ordered by norm, ties broken lexicographically on the factorization;
    a fresh generator restarts the same deterministic stream.  The ideals
    are built depth first over the prime ideals sorted by norm, and a
    partial product is extended only while its norm stays <= x, so the
    work is proportional to the number of ideals listed.
    """
    disc = require_fundamental(d)
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    prime_ideals = sorted(
        (P for p in cached_primes(x) for P in _primes_over(disc, p) if P.norm <= x),
        key=lambda P: P.norm,
    )
    found = []  # (norm, factors), sorted as tuples: no prime ideal repeats in one list
    # (norm, index of the first prime ideal it may still take, factor list)
    stack: list[tuple[int, int, tuple[tuple[PrimeIdeal, int], ...]]] = [(1, 0, ())]
    while stack:
        norm, start, factors = stack.pop()
        found.append((norm, tuple(sorted(factors))))
        for i in range(start, len(prime_ideals)):
            P = prime_ideals[i]
            grown = norm * P.norm
            if grown > x:
                break
            e = 1
            while grown <= x:
                stack.append((grown, i + 1, factors + ((P, e),)))
                e += 1
                grown *= P.norm
    found.sort()
    for _, factors in found:
        yield FactoredIdeal(disc=disc, factors=factors)


def min_phi_ideal(d: int | Discriminant, n: int) -> FactoredIdeal:
    """The ideal of norm n with the least phi_K, ties to the smallest factor tuple.

    Per rational prime p^e || n: split e = 1 -> P.0, split e >= 2 ->
    P.0 * P.1^(e-1), inert -> P^(e/2), ramified -> P^e.  Raises
    ValueError when no ideal has norm n.
    """
    disc = require_fundamental(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    factors: list[tuple[PrimeIdeal, int]] = []
    for p, e in factorize(n):
        above = _primes_over(disc, p)
        P = above[0]
        if P.splitting == Splitting.SPLIT:
            factors.append((P, 1))
            if e > 1:
                factors.append((above[1], e - 1))
        elif P.splitting == Splitting.INERT:
            if e % 2:
                raise ValueError(f"no ideal of {disc.value} has norm {n}")
            factors.append((P, e // 2))
        else:
            factors.append((P, e))
    return FactoredIdeal(disc=disc, factors=tuple(factors))


__all__ = [
    "BRUTE_FORCE_CAP",
    "FactoredIdeal",
    "PrimeIdeal",
    "brute_force_phi",
    "ideal_norm",
    "ideals_up_to_norm",
    "min_phi_ideal",
    "phi_K",
    "phi_K_of_N",
    "principal_ideal",
]
