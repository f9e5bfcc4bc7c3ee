"""Per-degree upper bounds on CM torsion by exhaustive feasibility search.

A torsion shape Z/a x Z/ab over a degree-d field must satisfy
h * phi_K((ab)) <= 6 b d.  Relaxing with h >= 1 and the everywhere-split
minimum phi_K((n)) >= phi(n)^2 leaves the field-independent test
phi(ab)^2 <= 6 b d, whose maximal surviving size a^2 b is the rigorous
bound B(d).  All feasibility comparisons are exact integer arithmetic.

The search region is finite by a proven totient lower bound.  With
n = ab the test reads phi(n)^2 <= c n for c = 6d/a.  Rosser and
Schoenfeld (Illinois J. Math. 6, 1962) prove
n / phi(n) < e^gamma loglog n + 2.50637 / loglog n for n >= 3.  With
E(n) = e^gamma loglog n + 3 / loglog n (3 in place of 2.50637: slack
that also absorbs float rounding), a feasible n obeys n < c E(n)^2.
``product_cutoff(c)`` turns that into an integer M(c) >= 63 with
phi(n)^2 <= c n  =>  n <= M(c): n / E(n)^2 increases for n >= 64, and
below 64 nothing is claimed.  Hence every feasible pair satisfies

    a <= n <= M(6d/a),

so a runs only while M(6d/a) >= a (M is nondecreasing in c, so the
first failure ends the range; phi(n)^2 >= n/2 also gives a <= 12d), and
each a scans n only up to min(n_max, M(6d/a)) with n_max = M(6 d_max).
The region holds about 1.6 n_max pairs instead of n_max ln(12 d_max).
One kernel, ``activations``, sweeps it over the int32 blocks of the
totient sieve, one block at a time: phi(n) <= n <= n_max(10^6) =
237,662,443 < 2^31, and each slice is cast to int64 before squaring.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .ideal_arith import _phi_K_local, phi_K_of_N
from .primes import EULER_GAMMA, factorize, least_phi_sieve, sieve_block, sieve_block_bytes
from .quad_core import (
    Discriminant,
    class_number,
    fundamental_discriminants,
    kronecker,
    require_fundamental,
)

_ENV_SCALE = math.exp(EULER_GAMMA)

# an upper bound on the bytes of int64 and bool temporaries one kernel step
# holds per multiple
_CHUNK_BYTES_PER_PAIR = 128

# bytes per degree of BoundColumns: four int64 columns and the float64 ratio
_COLUMN_BYTES = 40


class BoundColumns(NamedTuple):
    """B(d) for consecutive ascending degrees, one array per quantity.

    Entry i is degree d[i]: bound[i] = B(d) = a^2 b for the maximizing
    shape Z/a x Z/ab with the smallest a, and ratio[i] = B(d) / (d log log d),
    NaN for d < 3.  d, a, b and bound are int64, ratio is float64.
    """

    d: np.ndarray
    a: np.ndarray
    b: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray


class FeasibilityRow(NamedTuple):
    """Exact left-hand side h * phi_K((ab)) / (6b) for one (field, shape)."""

    disc: Discriminant
    a: int
    b: int
    lhs: Fraction
    feasible: bool


class ConstantEstimate(NamedTuple):
    """Sup of B(d)/(d log log d) over a degree window, with its argmax."""

    value: float
    argmax_d: int


class ChainStep(NamedTuple):
    label: str
    lhs: int
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


class ChainAudit(NamedTuple):
    steps: tuple[ChainStep, ...]


def _totient_envelope(n: float) -> float:
    # n / phi(n) < e^gamma loglog n + 3/loglog n for all n >= 3
    ll = math.log(math.log(n))
    return _ENV_SCALE * ll + 3.0 / ll


def product_cutoff(c: float) -> int:
    """M(c) >= 63 such that phi(n)^2 <= c n forces n <= M(c).

    Two passes: double from 64 until n > c E(n)^2 (from there on n/E(n)^2
    only grows, so no larger n is feasible), then refine once by
    evaluating the envelope at that over-approximation (E increases on
    [64, limit], so nothing between M(c) and limit is feasible either).
    The floor 63 leaves the non-monotone range n < 64 unclaimed.
    """
    limit = 64
    while limit <= c * _totient_envelope(limit) ** 2:
        limit *= 2
    return max(63, int(c * _totient_envelope(limit) ** 2) + 1)


def feasible_product_cutoff(d: int) -> int:
    """n_max = M(6d): phi(n)^2 <= 6 n d forces n <= n_max."""
    if d < 1:
        raise ValueError("need d >= 1")
    return product_cutoff(6 * d)


class SweepRegion(NamedTuple):
    """The proven search region of the sweep up to d_max.

    Pair (a, n = ab) is scanned iff a <= a_max and n is a multiple of a
    with n <= n_hi[a - 1] = min(n_max, M(6 d_max / a)).
    """

    d_max: int
    n_hi: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return self.n_hi[0]

    @property
    def a_max(self) -> int:
        return len(self.n_hi)

    @property
    def pairs_scanned(self) -> int:
        return sum(n // a for a, n in enumerate(self.n_hi, start=1))

    @property
    def chunk(self) -> int:
        """Multiples of a per kernel step: a 32nd of a sieve block, so one
        step's temporaries take no more than the block's int32 table."""
        return 4 * sieve_block(self.n_max) // _CHUNK_BYTES_PER_PAIR

    @property
    def peak_bytes(self) -> int:
        """Upper estimate of the kernel's peak memory, by arithmetic only.

        One block of the totient sieve (no prime is inert) plus one chunk of
        temporaries, plus the int64 per-degree reduction array.
        """
        sweep = sieve_block_bytes(self.n_max, inert=False) + self.chunk * _CHUNK_BYTES_PER_PAIR
        return sweep + 16 * (self.d_max + 1)

    def bound_bytes(self, d_min: int) -> int:
        """Upper estimate of the peak memory of bound_records(d_min, d_max).

        The sweep's peak, or after it the columns, whichever is larger: the
        bound and a columns are cut from the int64 reduction array while it
        is still live.
        """
        columns = 8 * (self.d_max + 1) + _COLUMN_BYTES * (self.d_max - d_min + 1)
        return max(self.peak_bytes, columns)


@lru_cache(maxsize=8)
def sweep_region(d_max: int) -> SweepRegion:
    """The cutoffs a <= n <= min(n_max, M(6 d_max / a)) of the sweep.

    Memoized, so a caller that sizes a request before running it builds
    the region once.
    """
    n_max = feasible_product_cutoff(d_max)
    n_hi: list[int] = []
    for a in range(1, 12 * d_max + 1):  # phi(n)^2 >= n/2 forces a <= 12d
        cutoff = product_cutoff(6 * d_max / a)
        if cutoff < a:  # M is nondecreasing in c, so every larger a fails too
            break
        n_hi.append(min(n_max, cutoff))
    return SweepRegion(d_max=d_max, n_hi=tuple(n_hi))


def activations(region: SweepRegion) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The feasibility kernel: yield (a, n, degree) for the region's pairs.

    degree[i] = ceil(a phi(n)^2 / (6 n)) is the least d at which (a, n[i])
    is feasible; only pairs with degree <= d_max are yielded.  The totient
    comes in the blocks of ``least_phi_sieve``; inside a block, each a's
    multiples come in increasing order, at most ``region.chunk`` at a time.
    So the pairs are ordered by (block, a, n), and peak memory is one block
    plus one chunk of temporaries.
    """
    chunk = region.chunk
    for lo, phi in least_phi_sieve(region.n_max):
        top = lo + len(phi) - 1
        for a, n_hi in enumerate(region.n_hi, start=1):
            if n_hi < lo or a > top:  # n_hi does not increase with a
                break
            last = min(n_hi, top)
            for start in range(max(a, -(-lo // a) * a), last + 1, a * chunk):
                stop = min(last, start + a * (chunk - 1))
                n = np.arange(start, stop + 1, a, dtype=np.int64)
                # a phi(n)^2 <= n_hi * a M(6 d_max / a), about n_max^2 < 2^63
                lhs = phi[start - lo : stop - lo + 1 : a].astype(np.int64)
                lhs *= lhs
                lhs *= a
                six_n = 6 * n
                keep = lhs <= six_n * region.d_max
                six_n = six_n[keep]
                yield a, n[keep], (lhs[keep] + six_n - 1) // six_n


def bound_records(d_min: int, d_max: int) -> BoundColumns:
    """B(d) for every degree in [d_min, d_max], in one sweep, as columns.

    Each feasible pair (a, n = ab) is reduced into its activation degree,
    keyed by (size a n, then smallest a); a running maximum over the
    degrees then yields B(d) for all d at once.  Each ratio takes log log d
    from ``math.log``, degree by degree, so it is the same float as
    B(d) / (d * math.log(math.log(d))).
    """
    if not 1 <= d_min <= d_max:
        raise ValueError(f"need 1 <= d_min <= d_max, got [{d_min}, {d_max}]")
    region = sweep_region(d_max)
    bits = region.a_max.bit_length()
    shift = 1 << bits  # key = size * shift + (shift - a), a < shift
    best = np.zeros(d_max + 1, dtype=np.int64)
    for a, n, degree in activations(region):
        np.maximum.at(best, degree, a * n * shift + (shift - a))
    np.maximum.accumulate(best, out=best)  # (a, b) = (1, 1) activates at d = 1
    bound = best[d_min:] >> bits
    a = shift - (best[d_min:] & (shift - 1))
    del best
    b = bound // (a * a)
    d = np.arange(d_min, d_max + 1, dtype=np.int64)
    lo = max(d_min, 3)
    loglog = map(math.log, map(math.log, range(lo, d_max + 1)))
    ratio = np.fromiter(chain(repeat(math.nan, lo - d_min), loglog), np.float64, len(d))
    np.multiply(ratio, d, out=ratio)
    np.divide(bound, ratio, out=ratio)
    return BoundColumns(d=d, a=a, b=b, bound=bound, ratio=ratio)


def constant_over(columns: BoundColumns) -> ConstantEstimate:
    """Sup of the ratio column over the degrees d >= 3, by argmax.

    The first maximum, the smallest such d, wins.
    """
    first = int(np.searchsorted(columns.d, 3))  # d ascends
    if first == len(columns.d):
        raise ValueError("no degrees >= 3 in the columns")
    i = first + int(np.argmax(columns.ratio[first:]))
    return ConstantEstimate(value=float(columns.ratio[i]), argmax_d=int(columns.d[i]))


def relaxed_pairs(d: int) -> list[tuple[int, int]]:
    """Every (a, b) with phi(ab)^2 <= 6 b d, sorted, via the proven cutoffs."""
    if d < 1:
        raise ValueError("need d >= 1")
    return sorted((a, n // a) for a, ns, _ in activations(sweep_region(d)) for n in ns.tolist())


def refined_table(d: int, D_cap: int) -> list[FeasibilityRow]:
    """Exact per-field feasibility of every relaxed-feasible shape.

    Diagnostic only: restricting the fields to |D| <= D_cap does not by
    itself certify an upper bound over all fields.
    """
    if D_cap < 3:
        raise ValueError("need D_cap >= 3")
    # rows by (-a^2 b, |D|, a, b) as built: the pairs sorted once by
    # (-a^2 b, a, b), then each size's pairs field by field, |D| ascending
    by_size = sorted((-a * a * b, a, b) for a, b in relaxed_pairs(d))
    # each n = ab factored once, and chi read once per field at its primes
    factors = {n: factorize(n) for n in {a * b for _, a, b in by_size}}
    primes = {p for f in factors.values() for p, _ in f}
    fields = []
    for value in fundamental_discriminants(D_cap):
        disc = require_fundamental(value)
        chi = {p: kronecker(disc, p) for p in primes}
        phi = {n: _phi_K_local(f, chi.__getitem__) for n, f in factors.items()}
        fields.append((disc, class_number(disc), phi))
    rows: list[FeasibilityRow] = []
    for _, group in groupby(by_size, key=itemgetter(0)):
        group = list(group)
        for disc, h, phi in fields:
            for _, a, b in group:
                lhs = Fraction(h * phi[a * b], 6 * b)
                rows.append(FeasibilityRow(disc=disc, a=a, b=b, lhs=lhs, feasible=lhs <= d))
    return rows


def chain_audit(d: int, D: int | Discriminant, a: int, b: int) -> ChainAudit:
    """Evaluate each inequality of the degree chain exactly, in order.

    Steps: the ray-class degree forced by full a-torsion must fit in 2d;
    after the squaring extension of degree <= b (full ab-torsion from
    torsion of shape (a, ab)), the level-ab ray class degree must fit in
    2bd; finally the combined bound d >= h phi_K((ab))/(6b).  Each
    ray-class degree is bounded below by h phi_K/6, the ``lower_weak`` of
    ``degree_bounds``, so the first two right sides are h phi_K/3.

    Step 3 is step 2 divided by 2b, so the two steps' ``holds`` always
    agree.  The left sides 2d, 2bd and d are ints and each right side is
    one Fraction of ints, so every comparison is exact and no Fraction is
    divided.
    """
    if d < 1 or a < 1 or b < 1:
        raise ValueError("need d, a, b >= 1")
    disc = require_fundamental(D)
    h = class_number(disc)
    h_phi_ab = h * phi_K_of_N(disc, a * b)
    steps = (
        ChainStep(label="2d >= h*phi_K(aO)/3", lhs=2 * d, rhs=Fraction(h * phi_K_of_N(disc, a), 3)),
        ChainStep(label="2bd >= h*phi_K(abO)/3", lhs=2 * b * d, rhs=Fraction(h_phi_ab, 3)),
        ChainStep(label="d >= h*phi_K(abO)/(6b)", lhs=d, rhs=Fraction(h_phi_ab, 6 * b)),
    )
    return ChainAudit(steps=steps)


__all__ = [
    "BoundColumns",
    "ChainAudit",
    "ChainStep",
    "ConstantEstimate",
    "FeasibilityRow",
    "SweepRegion",
    "activations",
    "bound_records",
    "chain_audit",
    "constant_over",
    "feasible_product_cutoff",
    "product_cutoff",
    "refined_table",
    "relaxed_pairs",
    "sweep_region",
]
