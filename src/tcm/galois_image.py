"""The unit group of O/NO realized as 2x2 matrices mod N, verified by scan.

A matrix in the group has the shape [[x, q*y], [y, x + y*D]] with
q = (D - D^2)/4, and lies in the group iff its determinant
x^2 + D x y + ((D^2 - D)/4) y^2 is a unit mod N.  The module builds the
full set for small N and measures, exhaustively, the facts the torsion
bound rests on: the homotheties are present, reduction kernels have size
p^(2B), and point stabilizers divide p - 1 / 1 / p according to the
splitting of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CapExceededError
from .quad_core import Discriminant, Splitting, as_discriminant, splitting_type

CN_CAP = 200


@dataclass(frozen=True)
class GaloisMatrix:
    """One element of the mod-N unit group, keyed by its pair (alpha, beta)."""

    disc: int
    modulus: int
    alpha: int
    beta: int

    @property
    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        # top-right constant is (D - D^2)/4, the square of the second basis
        # element; the determinant then equals the norm form, whose y^2
        # coefficient is (D^2 - D)/4.
        n = self.modulus
        q = (self.disc - self.disc * self.disc) // 4
        return (
            (self.alpha % n, q * self.beta % n),
            (self.beta % n, (self.alpha + self.beta * self.disc) % n),
        )

    def det(self) -> int:
        (a, b), (c, d) = self.entries
        return (a * d - b * c) % self.modulus

    def __mul__(self, other: "GaloisMatrix") -> "GaloisMatrix":
        if (self.disc, self.modulus) != (other.disc, other.modulus):
            raise ValueError("matrices live in different groups")
        n = self.modulus
        (a1, b1), (c1, d1) = self.entries
        (a2, b2), (c2, d2) = other.entries
        p00 = (a1 * a2 + b1 * c2) % n
        p10 = (c1 * a2 + d1 * c2) % n
        return GaloisMatrix(disc=self.disc, modulus=n, alpha=p00, beta=p10)

    def apply(self, x: int, y: int) -> tuple[int, int]:
        (a, b), (c, d) = self.entries
        n = self.modulus
        return ((a * x + b * y) % n, (c * x + d * y) % n)

    @classmethod
    def identity(cls, disc: int, modulus: int) -> "GaloisMatrix":
        return cls(disc=disc, modulus=modulus, alpha=1 % modulus, beta=0)


@dataclass(frozen=True)
class GaloisImageReport:
    """Observed maximal point-stabilizer order and the divisor it must obey."""

    disc: int
    p: int
    A: int
    split_type: Splitting
    max_stabilizer_order: int
    expected_divisor: int

    @property
    def divides(self) -> bool:
        return self.expected_divisor % self.max_stabilizer_order == 0


def _unit_mask(delta: int, n: int) -> np.ndarray:
    """Boolean (n, n) array: entry [x, y] is True iff the pair is a unit."""
    quad = (delta * delta - delta) // 4
    xs = np.arange(n, dtype=np.int64)
    norm = (
        xs[:, None] * xs[:, None]
        + (delta % n) * xs[:, None] * xs[None, :]
        + (quad % n) * xs[None, :] * xs[None, :]
    ) % n
    return np.gcd(norm, n) == 1


def _unit_pairs(delta: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = np.nonzero(_unit_mask(delta, n))
    return xs.astype(np.int64), ys.astype(np.int64)


def cn_elements(d: int | Discriminant, n: int, cap: int = CN_CAP) -> set[GaloisMatrix]:
    """The full unit group mod n, built by scanning all (alpha, beta) pairs."""
    disc = as_discriminant(d)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > cap:
        raise CapExceededError("n", n, cap)
    xs, ys = _unit_pairs(disc.value, n)
    return {
        GaloisMatrix(disc=disc.value, modulus=n, alpha=int(a), beta=int(b))
        for a, b in zip(xs.tolist(), ys.tolist())
    }


def cn_order(d: int | Discriminant, n: int, cap: int = CN_CAP) -> int:
    """Size of the unit group mod n, without materializing elements."""
    disc = as_discriminant(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > cap:
        raise CapExceededError("n", n, cap)
    if n == 1:
        return 1
    return int(_unit_mask(disc.value, n).sum())


def verify_homotheties(d: int | Discriminant, n: int, cap: int = CN_CAP) -> bool:
    """Check every scalar matrix with unit scalar lies in the group."""
    disc = as_discriminant(d)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > cap:
        raise CapExceededError("n", n, cap)
    mask = _unit_mask(disc.value, n)
    return all(mask[a, 0] for a in range(1, n) if gcd(a, n) == 1)


def kernel_size(d: int | Discriminant, p: int, A: int, B: int, cap: int = CN_CAP) -> int:
    """Size of the kernel of reduction from level p^(A+B) to level p^A.

    Also asserts, by counting distinct images, that the reduction map is
    surjective onto the level-p^A group.
    """
    disc = as_discriminant(d)
    if A < 1 or B < 1:
        raise ValueError("need A >= 1 and B >= 1")
    big = p ** (A + B)
    if big > cap:
        raise CapExceededError("p**(A+B)", big, cap)
    small = p**A
    xs, ys = _unit_pairs(disc.value, big)
    in_kernel = (xs % small == 1) & (ys % small == 0)
    images = np.unique(xs % small * small + ys % small)
    if len(images) != cn_order(disc, small, cap=cap):
        raise ArithmeticError(
            f"reduction mod {small} of the level-{big} group is not surjective"
        )
    return int(in_kernel.sum())


def max_stabilizer_order(
    d: int | Discriminant, p: int, A: int, cap: int = CN_CAP
) -> GaloisImageReport:
    """Exhaustive maximum, over points of exact order p^(A+1), of the
    number of group elements (kernel elements when A >= 1) fixing the point.

    For A = 0 the scan runs over the whole mod-p group and all nonzero
    points; the maximum must divide p - 1, 1, or p according to whether p
    splits, is inert, or ramifies.  For A >= 1 the scan runs over the
    kernel of reduction to level p^A and points of exact order p^(A+1);
    the maximum must divide p.
    """
    disc = as_discriminant(d)
    if A < 0:
        raise ValueError("need A >= 0")
    n = p ** (A + 1)
    if n > cap:
        raise CapExceededError("p**(A+1)", n, cap)
    kind = splitting_type(disc, p)

    xs, ys = _unit_pairs(disc.value, n)
    if A == 0:
        candidates = np.ones(len(xs), dtype=bool)
        expected = {Splitting.SPLIT: p - 1, Splitting.INERT: 1, Splitting.RAMIFIED: p}[kind]
    else:
        small = p**A
        candidates = (xs % small == 1) & (ys % small == 0)
        expected = p

    delta = disc.value
    entry_q = (delta - delta * delta) // 4
    grid = np.arange(n, dtype=np.int64)
    vx = np.repeat(grid, n)
    vy = np.tile(grid, n)
    if A == 0:
        point_mask = (vx != 0) | (vy != 0)
    else:
        point_mask = (vx % p != 0) | (vy % p != 0)  # exact order p^(A+1)

    counts = np.zeros(n * n, dtype=np.int64)
    qm, dm = entry_q % n, delta % n
    for a, b in zip(xs[candidates].tolist(), ys[candidates].tolist()):
        gx = (a * vx + qm * b % n * vy) % n
        gy = (b * vx + (a + b * dm) % n * vy) % n
        counts += (gx == vx) & (gy == vy)
    observed = int(counts[point_mask].max())
    return GaloisImageReport(
        disc=disc.value,
        p=p,
        A=A,
        split_type=kind,
        max_stabilizer_order=observed,
        expected_divisor=expected,
    )


def squaring_degree_bound(a: int, b: int) -> int:
    """Degree cost of passing from torsion shape (a, ab) to full ab-torsion.

    The extension needed to rationalize all ab-torsion has degree at most
    b; this is the rule the feasibility chain consumes, kept as its own
    operation so the chain's provenance is explicit and checkable against
    the stabilizer scans at prime level.
    """
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    return b


__all__ = [
    "CN_CAP",
    "GaloisImageReport",
    "GaloisMatrix",
    "cn_elements",
    "cn_order",
    "kernel_size",
    "max_stabilizer_order",
    "squaring_degree_bound",
    "verify_homotheties",
]
