"""The unit group of O/NO as an array of unit pairs, verified by scan.

An element x + y w of O/NO, with w = (D + sqrt(D))/2, is carried as its
pair (alpha, beta) = (x, y) mod N; it is a unit iff its norm
x^2 + D x y + ((D^2 - D)/4) y^2 is a unit mod N, and ``_times`` is the
group law.  ``_unit_mask`` is the one scan of the residue ring: the
group lists its unit pairs, ``ideal_arith.brute_force_phi`` counts them
and ``kernel_size`` reads the kernel and the image of reduction off it.
The module scans the full group for small N and measures, exhaustively,
the facts the torsion bound rests on: the homotheties are present,
reduction kernels have size p^(2B), and point stabilizers divide
p - 1 / 1 / p according to the splitting of p.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

from .primes import is_prime
from .quad_core import Discriminant, Splitting, as_discriminant, splitting_type

CN_CAP = 200


class GaloisImageReport(NamedTuple):
    """Observed maximal point-stabilizer order and the divisor it must obey."""

    split_type: Splitting
    max_stabilizer_order: int
    expected_divisor: int

    @property
    def divides(self) -> bool:
        return self.expected_divisor % self.max_stabilizer_order == 0


def _times(delta, n, ux, uy, vx, vy):
    """(ux + uy w)(vx + vy w) mod n as its pair, where w = (D + sqrt(D))/2
    satisfies w^2 = q + D w with q = (D - D^2)/4.  Works on ints and on
    int64 arrays of entries below n (the coefficients are reduced first).
    """
    qm, dm = (delta - delta * delta) // 4 % n, delta % n
    return (ux * vx + qm * uy * vy) % n, (ux * vy + uy * vx + dm * uy * vy) % n


def _unit_mask(delta: int, n: int) -> np.ndarray:
    """Boolean (n, n) array: entry [x, y] is True iff the pair is a unit."""
    quad = (delta * delta - delta) // 4
    xs = np.arange(n, dtype=np.int64)
    norm = (xs * xs)[:, None] + ((delta % n) * xs)[:, None] * xs + (quad % n) * xs * xs
    return (np.gcd(xs, n) == 1)[norm % n]


def cn_elements(d: int | Discriminant, n: int) -> np.ndarray:
    """The full unit group mod n, from a scan of all (alpha, beta) pairs.

    An (order, 2) int64 array of the unit pairs in lexicographic order.
    """
    disc = as_discriminant(d)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > CN_CAP:
        raise ValueError(f"n={n} exceeds cap {CN_CAP}")
    return np.argwhere(_unit_mask(disc.value, n))


def verify_homotheties(d: int | Discriminant, n: int) -> bool:
    """Check every unit scalar a mod n lies in the group, as the pair (a, 0)."""
    pairs = cn_elements(d, n)
    scalars = set(pairs[pairs[:, 1] == 0, 0].tolist())
    return all(a in scalars for a in range(1, n) if gcd(a, n) == 1)


def _capped_power(p: int, e: int, what: str) -> int:
    """p**e for a prime p, or ValueError when that is over CN_CAP.

    As p >= 2, p**e is over the cap once e >= CN_CAP.bit_length(); such
    an e is refused before the power is built.
    """
    if e >= CN_CAP.bit_length():
        raise ValueError(f"{what}={p}**{e} exceeds cap {CN_CAP}")
    power = p**e
    if power > CN_CAP:
        raise ValueError(f"{what}={power} exceeds cap {CN_CAP}")
    return power


def kernel_size(d: int | Discriminant, p: int, A: int, B: int) -> int:
    """Size of the kernel of reduction from level p^(A+B) to level p^A.

    Read off the level-p^(A+B) unit mask: the kernel is the units with
    x = 1 and y = 0 mod p^A.  Also asserts, by counting the residue pairs
    mod p^A hit by a unit, that the reduction map is surjective onto the
    level-p^A group.
    """
    disc = as_discriminant(d)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if A < 1 or B < 1:
        raise ValueError("need A >= 1 and B >= 1")
    big = _capped_power(p, A + B, "p**(A+B)")
    small = p**A
    mask = _unit_mask(disc.value, big)
    # the unit pair (x, y) = (i small + r, j small + s) reduces to (r, s)
    m = big // small
    images = mask.reshape(m, small, m, small).any(axis=(0, 2))
    if images.sum() != _unit_mask(disc.value, small).sum():
        raise ArithmeticError(
            f"reduction mod {small} of the level-{big} group is not surjective"
        )
    return int(mask[1::small, ::small].sum())


def max_stabilizer_order(d: int | Discriminant, p: int, A: int) -> GaloisImageReport:
    """Exhaustive maximum, over points of exact order p^(A+1), of the
    number of group elements (kernel elements when A >= 1) fixing the point.

    For A = 0 the scan runs over the whole mod-p group and all nonzero
    points; the maximum must divide p - 1, 1, or p according to whether p
    splits, is inert, or ramifies.  For A >= 1 the scan runs over the
    kernel of reduction to level p^A and points of exact order p^(A+1);
    the maximum must divide p.

    One point per orbit of the full unit group suffices.  The group acts
    on O/nO by multiplication in a commutative ring, so for a unit u and
    a candidate g, g(uv) = uv iff u(gv - v) = 0 iff gv = v: the number of
    candidates fixing a point is constant on each orbit.  Both point sets
    (nonzero points; points outside pO) are unions of orbits, because
    multiplying by a unit keeps a point in them.  The scan takes the
    first unmarked point, marks its orbit, counts its fixers and repeats,
    in (#orbits) * |group| work rather than |candidates| * n^2.
    """
    disc = as_discriminant(d)
    if A < 0:
        raise ValueError("need A >= 0")
    kind = splitting_type(disc, p)
    n = _capped_power(p, A + 1, "p**(A+1)")

    xs, ys = cn_elements(disc, n).T
    grid = np.arange(n, dtype=np.int64)
    if A == 0:
        gx, gy = xs, ys
        expected = {Splitting.SPLIT: p - 1, Splitting.INERT: 1, Splitting.RAMIFIED: p}[kind]
        unmarked = (grid[:, None] != 0) | (grid[None, :] != 0)
    else:
        small = p**A
        in_kernel = (xs % small == 1) & (ys % small == 0)
        gx, gy = xs[in_kernel], ys[in_kernel]
        expected = p
        unmarked = (grid[:, None] % p != 0) | (grid[None, :] % p != 0)  # exact order p^(A+1)

    observed = 0
    while unmarked.any():
        vx, vy = divmod(int(np.argmax(unmarked)), n)
        unmarked[_times(disc.value, n, xs, ys, vx, vy)] = False
        fx, fy = _times(disc.value, n, gx, gy, vx, vy)
        observed = max(observed, int(((fx == vx) & (fy == vy)).sum()))
    return GaloisImageReport(
        split_type=kind,
        max_stabilizer_order=observed,
        expected_divisor=expected,
    )


__all__ = [
    "CN_CAP",
    "GaloisImageReport",
    "cn_elements",
    "kernel_size",
    "max_stabilizer_order",
    "verify_homotheties",
]
