"""The unit group of O/NO as a list of unit pairs, verified by scan.

An element x + y w of O/NO, with w = (D + sqrt(D))/2, is carried as its
pair (alpha, beta) = (x, y) mod N; it is a unit iff its norm
x^2 + D x y + ((D^2 - D)/4) y^2 is a unit mod N.  As w^2 = q + D w with
q = (D - D^2)/4, the group law is (ux, uy)(vx, vy) = (ux vx + q uy vy,
ux vy + uy vx + D uy vy) mod N.  ``_unit_mask`` is the one scan of the
residue ring, a bytes mask over all N^2 pairs, memoized on (D, N): the
group lists its unit pairs, ``ideal_arith.brute_force_phi`` counts them,
``kernel_size`` reads the kernel and the image of reduction off it and
``max_stabilizer_order`` its candidates and orbits.  The module scans the
full group for small N and measures, exhaustively, the facts the
torsion bound rests on: the homotheties are present, reduction kernels
have size p^(2B), and point stabilizers divide p - 1 / 1 / p according
to the splitting of p.  It is plain Python over C-level byte operations
and loads no numpy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from math import gcd
from typing import NamedTuple

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


@lru_cache(maxsize=16)
def _unit_mask(delta: int, n: int) -> bytes:
    """n * n bytes, x-major: byte x n + y is 1 iff the pair (x, y) is a unit.

    Memoized on (D, n), 16 masks at most (1.4 MB at n = 300, the largest
    level any caller builds): the group's order and its element list read
    one scan, and the kernel grid of one discriminant, 14 levels below
    200, builds each level once.

    Every norm is evaluated mod n, one column y at a time.  For fixed y the
    norm is x^2 + b x + g with b = D y mod n = 2k + r (r in {0, 1}) and
    g = ((D^2 - D)/4) y^2, which equals s^2 + r s + c at s = x + k, where
    c = g - k^2 - r k.  So the column is the table of s^2 + r s mod n,
    rotated by k, read through the table of units rotated by c: one
    ``bytes.translate`` while the values fit in a byte (n < 256), one
    ``map`` over the table above that.
    """
    units = bytes(gcd(v, n) == 1 for v in range(n))
    squares = [[(s * s + r * s) % n for s in range(n)] for r in (0, 1)]
    if n < 256:
        squares = [bytes(table) for table in squares]
    quad = (delta * delta - delta) // 4 % n
    columns = []
    for y in range(n):
        k, r = divmod(delta * y % n, 2)
        c = (quad * y * y - k * k - r * k) % n
        shifted = squares[r][k:] + squares[r][:k]  # entry x is s^2 + r s at s = x + k
        table = units[c:] + units[:c]  # entry v says whether v + c is a unit
        if n < 256:
            columns.append(shifted.translate(table.ljust(256, b"\0")))
        else:
            columns.append(bytes(map(table.__getitem__, shifted)))
    by_column = b"".join(columns)
    return b"".join(by_column[x::n] for x in range(n))


def cn_elements(d: int | Discriminant, n: int) -> list[tuple[int, int]]:
    """The full unit group mod n, from a scan of all (alpha, beta) pairs.

    The unit pairs (x, y) as tuples, in lexicographic order.
    """
    disc = as_discriminant(d)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > CN_CAP:
        raise ValueError(f"n={n} exceeds cap {CN_CAP}")
    return list(compress(product(range(n), repeat=2), _unit_mask(disc.value, n)))


def verify_homotheties(d: int | Discriminant, n: int) -> bool:
    """Check every unit scalar a mod n lies in the group, as the pair (a, 0)."""
    scalars = {x for x, y in cn_elements(d, n) if y == 0}
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
    x = 1 and y = 0 mod p^A.  Also asserts that the reduction map is
    surjective onto the level-p^A group: the residue pairs mod p^A hit by
    a unit, found by OR-ing the mask's rows x = r mod p^A as ints and
    folding each into chunks of width p^A, must be the level-p^A mask.
    """
    disc = as_discriminant(d)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if A < 1 or B < 1:
        raise ValueError("need A >= 1 and B >= 1")
    big = _capped_power(p, A + B, "p**(A+B)")
    small = p**A
    mask = _unit_mask(disc.value, big)
    chunk = (1 << 8 * small) - 1
    images = []
    for r in range(small):
        hit = 0
        for x in range(r, big, small):
            hit |= int.from_bytes(mask[x * big : (x + 1) * big], "big")
        folded = 0
        while hit:
            folded |= hit & chunk
            hit >>= 8 * small
        images.append(folded.to_bytes(small, "big"))
    if b"".join(images) != _unit_mask(disc.value, small):
        raise ArithmeticError(
            f"reduction mod {small} of the level-{big} group is not surjective"
        )
    return sum(mask[x * big : (x + 1) * big : small].count(1) for x in range(1, big, small))


def max_stabilizer_order(d: int | Discriminant, p: int, A: int) -> GaloisImageReport:
    """Exhaustive maximum, over points of exact order p^(A+1), of the
    number of group elements (kernel elements when A >= 1) fixing the point.

    For A = 0 the scan runs over the whole mod-p group and all nonzero
    points; the maximum must divide p - 1, 1, or p according to whether p
    splits, is inert, or ramifies.  For A >= 1 the scan runs over the
    kernel of reduction to level p^A, the p^2 pairs (1 + p^A s, p^A t),
    and points of exact order p^(A+1); the maximum must divide p.

    One point per orbit of the full unit group suffices.  The group acts
    on O/nO by multiplication in a commutative ring, so for a unit u and
    a candidate g, g(uv) = uv iff u(gv - v) = 0 iff gv = v: the number of
    candidates fixing a point is constant on each orbit.  Both point sets
    (nonzero points; points outside pO) are unions of orbits, because
    multiplying by a unit keeps a point in them.  The scan takes the
    first unmarked point, counts its fixers exactly, marks points of its
    orbit and repeats.  A unit's orbit is the whole group, so its mask
    is cleared in one pass; any other point marks its orbit under the
    homotheties t in (Z/n)^*, a subset of its orbit.  Marking a subset
    is safe: it can only leave more points to be taken as
    representatives, each with its exact count, and every marked point
    shares the count of the point that marked it.
    """
    disc = as_discriminant(d)
    if A < 0:
        raise ValueError("need A >= 0")
    kind = splitting_type(disc, p)
    n = _capped_power(p, A + 1, "p**(A+1)")

    mask = _unit_mask(disc.value, n)
    if A == 0:
        candidates = list(compress(product(range(n), repeat=2), mask))
        expected = {Splitting.SPLIT: p - 1, Splitting.INERT: 1, Splitting.RAMIFIED: p}[kind]
        unmarked = bytearray(b"\0" + b"\1" * (n * n - 1))
    else:
        small = p**A
        candidates = [(1 + small * s, small * t) for s in range(p) for t in range(p)]
        expected = p
        # exact order p^(A+1): x or y is not divisible by p
        row, divisible = b"\1" * n, (b"\0" + b"\1" * (p - 1)) * (n // p)
        unmarked = bytearray(b"".join(divisible if x % p == 0 else row for x in range(n)))
    scalars = [t for t in range(1, n) if gcd(t, n) == 1]
    group = int.from_bytes(mask, "big")
    qm, dm = (disc.value - disc.value**2) // 4 % n, disc.value % n

    observed = 0
    index = unmarked.find(1)
    while index >= 0:
        vx, vy = divmod(index, n)
        if mask[index]:
            left = int.from_bytes(unmarked, "big") & ~group
            unmarked = bytearray(left.to_bytes(n * n, "big"))
        else:
            for t in scalars:
                unmarked[t * vx % n * n + t * vy % n] = 0
        # g v = (gx vx + gy (q vy), gx vy + gy (vx + D vy)) mod n
        qv, dv = qm * vy % n, (vx + dm * vy) % n
        fixers = sum((gx * vx + gy * qv) % n == vx and (gx * vy + gy * dv) % n == vy for gx, gy in candidates)
        observed = max(observed, fixers)
        index = unmarked.find(1, index)
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
