"""Numerical product estimates and empirical constant scans.

Mertens products, quadratic-character Euler products, L(1, chi) from the
class number formula, and scans measuring the observed constant in the
uniform lower bound for the ideal Euler function.  Values here are
floating point; everything rigorous lives upstream in the exact modules.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from .ideal_arith import FactoredIdeal, min_phi_ideal
from .primes import EULER_GAMMA, certified, least_phi_sieve, prime_array, prime_list_bytes, sieve_block_bytes
from .quad_core import (
    CHARACTER_TABLE_BYTES_PER_RESIDUE,
    Discriminant,
    character_table,
    class_number,
    require_fundamental,
    unit_count,
)

# norms reduced per numpy step, and an upper bound on the bytes of the
# float64, int64 and bool temporaries one step holds per norm
_REDUCE_CHUNK = 1 << 16
_REDUCE_BYTES_PER_NORM = 64
# numpy's log may differ from math.log in the last bits, so every norm
# within this relative distance of a step's numpy minimum is re-evaluated
# with math.log; the slack is far above the few ulps the two logs differ by
_LOG_SLACK = 1e-9


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


def _pairwise_sum(terms: np.ndarray) -> float:
    """Sum by halving in place: each term passes through ceil(log2 n) roundings.

    Overwrites terms.  Each step adds the last half onto the first; an odd
    middle term waits for the next step.
    """
    n = len(terms)
    while n > 1:
        half = n // 2
        terms[:half] += terms[n - half : n]
        n -= half
    return float(terms[0]) if len(terms) else 0.0


def _certified_product(ps: np.ndarray, chi: np.ndarray | int) -> float:
    """prod over the primes ps of (1 - chi(p)/p), printed right to 12 digits.

    The float is exp of the sum of log1p(-chi/p).  Relative to the exact
    product it is within u ((L + 12) sum |log1p| + 4), with u = 2^-53 and
    L = ceil(log2 pi(x)) roundings per term in ``_pairwise_sum``: each
    term is within 10 u of itself (the quotient's rounding, amplified at
    most 1.45 times by log1p, and 4 ulp for log1p), and exp adds 2 u.
    That is 1e-14 at x = 10^6.  ``certified`` settles the 12 digits, near
    a rounding boundary by the product in 50-digit ``decimal`` (within
    pi(x) 10^-49 of the exact value).
    """
    terms = np.divide(chi, ps)
    np.negative(terms, out=terms)
    np.log1p(terms, out=terms)
    positive = float(terms.sum(where=terms > 0))
    total = _pairwise_sum(terms)
    magnitude = 2 * positive - total  # sum |log1p|
    bound = 2.0**-53 * ((len(ps).bit_length() + 12) * magnitude + 4)
    return certified(math.exp(total), bound, _exact_product, ps, chi)


def _exact_product(ps: np.ndarray, chi: np.ndarray | int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        product = Decimal(1)
        for p, c in zip(ps.tolist(), np.broadcast_to(chi, ps.shape).tolist()):
            product *= Decimal(p - c) / p
        return product


def mertens_product(x: int) -> ProductEstimate:
    """prod over primes p <= x of (1 - 1/p), with ``_certified_product``'s 12 digits."""
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    ps = prime_array(x)
    return ProductEstimate(value=_certified_product(ps, 1), terms=len(ps))


def char_euler_product(d: int | Discriminant, x: int) -> ProductEstimate:
    """prod over primes p <= x of (1 - chi(p)/p) for the field character chi.

    Certified to 12 digits like ``mertens_product``.
    """
    disc = require_fundamental(d)
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    ps = prime_array(x)
    chi = character_table(disc)[ps % -disc.value]
    return ProductEstimate(value=_certified_product(ps, chi), terms=len(ps))


def product_bytes(d: int, x: int) -> int:
    """Upper estimate of char_euler_product's peak memory, by arithmetic alone.

    The primes up to x and the character table over |d|.  Accepts any
    int d, so a caller can size a request before validating it.
    """
    return prime_list_bytes(x) + CHARACTER_TABLE_BYTES_PER_RESIDUE * abs(d)


def l1_from_class_number(d: int | Discriminant) -> float:
    """L(1, chi) as the exact rearrangement 2 pi h / (w sqrt|d|)."""
    disc = require_fundamental(d)
    h = class_number(disc)
    w = unit_count(disc)
    return 2.0 * math.pi * h / (w * math.sqrt(-disc.value))


def scan_bytes(d: int, x: int) -> int:
    """Upper estimate of the peak memory of phi_bound_scan or landau_liminf_check.

    One block of the norm sieve up to x, the character table over |d| and
    one reduction step's temporaries; no array spans the norms up to x.
    Accepts any int d, so a caller can size a request before validating it.
    """
    return (
        sieve_block_bytes(max(x, 1))
        + CHARACTER_TABLE_BYTES_PER_RESIDUE * abs(d)
        + _REDUCE_BYTES_PER_NORM * _REDUCE_CHUNK
    )


def _window_min(blocks: Iterable[tuple[int, np.ndarray]], lo: int) -> tuple[float | None, int, int]:
    """(value, n, norms): the least minphi(n) * loglog n / n over norms
    n >= lo that have an ideal, the smallest such n, and the number of norms
    in the window that have an ideal.

    blocks are the consecutive (start, block) pairs of ``least_phi_sieve``,
    block[i] = minphi(start + i), read one at a time as they come.  The value
    is computed as float(minphi(n)) * math.log(math.log(n)) / n, the order
    the ideal-by-ideal scan uses, so it is bit-identical to it.
    """
    best: float | None = None
    arg = 0
    norms = 0
    for first, block in blocks:
        for start in range(max(lo, first), first + len(block), _REDUCE_CHUNK):
            phi = block[start - first : start - first + _REDUCE_CHUNK]
            has = phi > 0
            found = int(np.count_nonzero(has))
            if not found:
                continue
            norms += found
            n = np.arange(start, start + len(phi), dtype=np.float64)
            approx = np.where(has, phi * np.log(np.log(n)) / n, np.inf)
            cut = approx.min() * (1 + _LOG_SLACK)
            for i in np.flatnonzero(approx <= cut).tolist():
                k = start + i
                value = float(phi[i]) * math.log(math.log(k)) / k
                if best is None or value < best:
                    best, arg = value, k
    return best, arg, norms


def phi_bound_scan(d: int | Discriminant, x: int) -> ScanResult:
    """Minimum of phi_K(c) * loglog|c| / |c| over ideals with 3 <= |c| <= x.

    Multiplied by the class number this is the observed constant in the
    uniform lower bound phi_K(c) >= (C/h) |c| / loglog|c|.  A reduction
    over the blocks of ``least_phi_sieve`` for the field's character, one
    block at a time; ties go to the smallest norm, and within it to the
    ideal ``min_phi_ideal`` names.
    """
    disc = require_fundamental(d)
    if x < 3:
        raise ValueError(f"need x >= 3, got {x}")
    best, arg, norms = _window_min(least_phi_sieve(x, character_table(disc)), 3)
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

    The tail runs over norms in [x/10, x]; the comparison is directional,
    not a convergence proof, and the tail minimum mostly sits below the
    target: over the 62 fundamental |D| <= 200 it is below for 61 fields
    at x = 10^3, 60 at 10^4, 57 at 10^5 and 56 at 10^6, at 0.46 to 1.08
    times the target.
    """
    disc = require_fundamental(d)
    if x < 100:
        raise ValueError(f"need x >= 100, got {x}")
    lo = x // 10
    best, _, norms = _window_min(least_phi_sieve(x, character_table(disc)), lo)
    target = math.exp(-EULER_GAMMA) / l1_from_class_number(disc)
    return LandauCheck(empirical_min_tail=best, target=target, window=(lo, x), norms=norms)


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
