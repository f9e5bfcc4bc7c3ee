"""Per-degree upper bounds on CM torsion by exhaustive feasibility search.

A torsion shape Z/a x Z/ab over a degree-d field must satisfy
h * phi_K((ab)) <= 6 b d.  Relaxing with h >= 1 and the everywhere-split
minimum phi_K((n)) >= phi(n)^2 leaves the field-independent test
phi(ab)^2 <= 6 b d, whose maximal surviving size a^2 b is the rigorous
bound B(d).  All feasibility comparisons are exact integer arithmetic.

Lemma 1 (the size decides).  Put n = ab and m = a^2 b = a n.  Every prime
of a divides n, so m and n have the same prime divisors and
phi(m)/m = phi(n)/n.  Hence phi(m)^2 / m = a phi(n)^2 / n = phi(ab)^2 / b,
and the shape passes the test iff phi(m)^2 <= 6 d m.  The test sees a
shape only through its size m, and (1, m) is a shape of every size, so

    B(d) = max{m : phi(m)^2 <= 6 d m},

its smallest-a shape is (1, B(d)), and the shapes that pass at d are the
(a, m / a^2) with a^2 | m for the sizes m that pass.

The sizes are searched by their prime sets.  For a set S of primes let
r(S) be their product and G(S) the product of p^2 / (p - 1)^2 over S.
An m whose prime divisors are exactly S has phi(m) = m / sqrt(G(S)), so
it passes iff m <= X_S = floor(6 d G(S)): the passing sizes with prime
set S are the r(S) k for the S-smooth k <= X_S / r(S), and there is one
iff r(S) <= X_S, that is r(S) <= 6 d G(S) (S is admissible).  The
search walks the admissible sets depth first, each set extended by
primes above its largest.  Extending S by q multiplies r(S) / (6 d G(S))
by (q - 1)^2 / q, which grows with q and is at least 4/3 for q >= 3; so
an inadmissible set has no admissible extension, and the children
S + {q} of a set are admissible for q up to the first failure only.

Lemma 2 (pruning).  Let S be admissible, q_1 < q_2 < ... the primes above
its largest, and J the largest j with
r(S) q_1 ... q_j <= 6 d G(S) G(q_1, ..., q_j).  Then every admissible
S + T, with T a set of primes above those of S, has all its passing sizes
at most 6 d G(S) G(q_1, ..., q_J).  Proof: with j = |T|, the product of T
is at least q_1 ... q_j and G(T) is at most G(q_1, ..., q_j), termwise,
so admissibility of S + T forces the inequality at j.  For S nonempty
every q_i >= 3, and each step multiplies the left side over the right by
(q - 1)^2 / q > 1, so the inequality holds exactly for j <= J; and
G(q_1, ..., q_j) grows with j.  So a subtree whose bound is below
best + 1 holds no size above the best one found, and it is skipped.  The
bound of S + {q} falls as q grows (its greedy primes are termwise larger
and fewer), so the first child skipped ends the loop over children.
Both tests compare integers: num / den = G, r den <= c num for
admissibility and c num < (best + 1) den for the bound.

``bound_records`` answers a degree range by a staircase: m = B(d_max)
passes from its activation degree ceil(phi(m)^2 / (6 m)) on, so B = m on
[activation, d_max], and the next query is one degree below it.  So it
makes one query per distinct value of B: 262 over [1, 10^6].

``sweep_region`` counts the proven (a, n) region of every feasible pair,
which the ``bound`` meta records and the tests' sweep oracle scans.
With n = ab the test reads phi(n)^2 <= c n for c = 6d/a.  Rosser and
Schoenfeld (Illinois J. Math. 6, 1962) prove n / phi(n) < e^gamma
loglog n + 2.50637 / loglog n for n >= 3.  With E(n) = e^gamma loglog n
+ 3 / loglog n (3 in place of 2.50637: slack that also absorbs float
rounding), a feasible n obeys n < c E(n)^2.  ``product_cutoff(c)``
turns that into an integer M(c) >= 63 with phi(n)^2 <= c n  =>
n <= M(c): n / E(n)^2 increases for n >= 64, and below 64 nothing is
claimed.  Hence every feasible pair satisfies a <= n <= M(6d/a), so a
runs only while M(6d/a) >= a (M is nondecreasing in c, so the first
failure ends the range; phi(n)^2 >= n/2 also gives a <= 12d), and each
a reaches n only up to min(n_max, M(6d/a)) with n_max = M(6 d_max).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import count, groupby
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .primes import EULER_GAMMA, certified, factorize, nth_prime

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

    from .quad_core import Discriminant

_ENV_SCALE = math.exp(EULER_GAMMA)


class BoundRun(NamedTuple):
    """B(d) = bound for every degree d_lo <= d <= d_hi; its smallest-a
    shape Z/a x Z/ab is (a, b) = (1, bound) (Lemma 1)."""

    d_lo: int
    d_hi: int
    bound: int


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
    """lhs >= num / den, with the right side kept as two exact ints (den > 0)."""

    label: str
    lhs: int
    num: int
    den: int

    @property
    def rhs(self) -> Fraction:
        """num / den as one Fraction; ``holds`` does not build it."""
        return _field_side()[0](self.num, self.den)

    @property
    def holds(self) -> bool:
        return self.lhs * self.den >= self.num


class ChainAudit(NamedTuple):
    steps: tuple[ChainStep, ...]


# ---------------------------------------------------------------- the search

def _greedy_gain(c: int, i: int, num: int, den: int, rad: int) -> tuple[int, int]:
    """num / den times p^2 / (p - 1)^2 for the primes p from the i-th on,
    taken in order while each keeps the set admissible: Lemma 2's bound
    on the gain of any admissible extension, as an exact fraction."""
    while True:
        p = nth_prime(i)
        num_p, den_p, rad_p = num * p * p, den * (p - 1) ** 2, rad * p
        if rad_p * den_p > c * num_p:
            return num, den
        num, den, rad = num_p, den_p, rad_p
        i += 1


def _prime_sets(c: int, best: Callable[[], int]) -> Iterator[tuple[list[int], int, int]]:
    """(S, r(S), X_S) for the admissible prime sets S, depth first with
    the primes of S ascending, X_S = floor(c G(S)), c = 6d.

    A subtree is skipped when Lemma 2 bounds its sizes by best(), read
    afresh at each test, so a caller that raises it as it consumes the
    sets prunes the walk.  With best() = 0 nothing admissible is skipped.
    """

    def walk(S: list[int], start: int, num: int, den: int, rad: int):
        yield S, rad, c * num // den
        for i in count(start):
            q = nth_prime(i)
            num_q, den_q, rad_q = num * q * q, den * (q - 1) ** 2, rad * q
            if rad_q * den_q > c * num_q:
                return  # S + {q} is inadmissible, and so is S + {q'} for q' > q
            top_num, top_den = _greedy_gain(c, i + 1, num_q, den_q, rad_q)
            if c * top_num < (best() + 1) * top_den:
                return  # nothing above best under S + {q}, nor under S + {q'}
            yield from walk(S + [q], i + 1, num_q, den_q, rad_q)

    return walk([], 0, 1, 1, 1)


def _smooth(limit: int, S: list[int]) -> list[int]:
    """Every k <= limit whose prime divisors all lie in S, 1 included."""
    out = [1]
    for p in S:
        for k in out[:]:
            k *= p
            while k <= limit:
                out.append(k)
                k *= p
    return out


def _largest_size(d: int) -> tuple[int, int]:
    """(B(d), phi(B(d))): the largest m with phi(m)^2 <= 6 d m."""
    best, best_set = 1, []
    for S, rad, top in _prime_sets(6 * d, lambda: best):
        m = rad * max(_smooth(top // rad, S))
        if m > best:
            best, best_set = m, S
    phi = best
    for p in best_set:
        phi = phi // p * (p - 1)
    return best, phi


def bound_records(d_min: int, d_max: int) -> list[BoundRun]:
    """B(d) for every degree in [d_min, d_max], as ascending runs of one value.

    The runs cover the range exactly, one run per distinct value of B,
    each found by one search (the staircase of the module docstring).
    """
    if not 1 <= d_min <= d_max:
        raise ValueError(f"need 1 <= d_min <= d_max, got [{d_min}, {d_max}]")
    runs = []
    d = d_max
    while d >= d_min:
        size, phi = _largest_size(d)
        first = -(-phi * phi // (6 * size))  # the least degree size passes at
        runs.append(BoundRun(d_lo=max(first, d_min), d_hi=d, bound=size))
        d = first - 1
    runs.reverse()
    return runs


def bound_ratio(d: int, bound: int) -> float:
    """B(d) / (d log log d), for d >= 3, as the rows print it: the float
    quotient, ``certified`` against the ratio in 40-digit ``decimal``.
    With log within an ulp (2u, u = 2^-53), the float log log d is within
    2u / ll + 2u of ll = log log d, and the product and the quotient add
    u each; u / ll + 2u more is slack."""
    ll = math.log(math.log(d))
    return certified(bound / (d * ll), 2.0**-53 * (3 / ll + 6), _exact_ratio, d, bound)


def _exact_ratio(d: int, bound: int) -> Decimal:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        return bound / (d * Decimal(d).ln().ln())


def constant_over(runs: Iterable[BoundRun]) -> ConstantEstimate:
    """Sup of B(d) / (d log log d) over the degrees d >= 3 of the runs, by argmax.

    Within a run B is constant and d log log d increases, so a run's
    largest ratio is at its first degree >= 3.  The first maximum, the
    smallest such d, wins.
    """
    best = None
    for run in runs:
        if run.d_hi >= 3:
            d = max(run.d_lo, 3)
            value = bound_ratio(d, run.bound)
            if best is None or value > best.value:
                best = ConstantEstimate(value=value, argmax_d=d)
    if best is None:
        raise ValueError("no degrees >= 3 in the runs")
    return best


def relaxed_pairs(d: int) -> list[tuple[int, int]]:
    """Every (a, b) with phi(ab)^2 <= 6 b d, sorted: the (a, m / a^2) with
    a^2 | m for every size m that passes (Lemma 1)."""
    if d < 1:
        raise ValueError("need d >= 1")
    pairs = []
    for S, rad, top in _prime_sets(6 * d, lambda: 0):
        for k in _smooth(top // rad, S):
            m = rad * k
            pairs += [(a, m // (a * a)) for a in range(1, math.isqrt(m) + 1) if m % (a * a) == 0]
    pairs.sort()
    return pairs


# ---------------------------------------------------------- the meta cutoffs


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
    """The size of the proven (a, n = ab) region of every feasible pair up
    to d_max: the pairs with a <= a_max and n a multiple of a with
    a <= n <= min(n_max, M(6 d_max / a)), pairs_scanned in all."""

    n_max: int
    a_max: int
    pairs_scanned: int


def sweep_region(d_max: int) -> SweepRegion:
    """The region's three counts, each a's cutoff summed as it is found."""
    n_max = feasible_product_cutoff(d_max)
    a_max = pairs = 0
    for a in range(1, 12 * d_max + 1):  # phi(n)^2 >= n/2 forces a <= 12d
        cutoff = product_cutoff(6 * d_max / a)
        if cutoff < a:  # M is nondecreasing in c, so every larger a fails too
            break
        a_max, pairs = a, pairs + min(n_max, cutoff) // a
    return SweepRegion(n_max=n_max, a_max=a_max, pairs_scanned=pairs)


# ----------------------------------------------------------- the field side


@cache
def _field_side():
    """Fraction, ideal_arith and quad_core, imported at the first call.

    Imported with this module they would add about 6 ms to
    ``import tcm.cli``, which tcm bound and tcm --version pay and do not
    use.  The cached call costs chain_audit, run once per
    refined row, a tenth of what three import statements would."""
    from fractions import Fraction

    from . import ideal_arith, quad_core

    return Fraction, ideal_arith, quad_core


def refined_table(d: int, D_cap: int) -> list[FeasibilityRow]:
    """Exact per-field feasibility of every relaxed-feasible shape.

    Diagnostic only: restricting the fields to |D| <= D_cap does not by
    itself certify an upper bound over all fields.
    """
    Fraction, ideal_arith, quad_core = _field_side()
    if D_cap < 3:
        raise ValueError("need D_cap >= 3")
    # rows by (-a^2 b, |D|, a, b) as built: the pairs sorted once by
    # (-a^2 b, a, b), then each size's pairs field by field, |D| ascending
    by_size = sorted((-a * a * b, a, b) for a, b in relaxed_pairs(d))
    # each n = ab factored once, and chi read once per field at its primes
    factors = {n: factorize(n) for n in {a * b for _, a, b in by_size}}
    primes = {p for f in factors.values() for p, _ in f}
    fields = []
    for value in quad_core.fundamental_discriminants(D_cap):
        disc = quad_core.require_fundamental(value)
        chi = {p: quad_core.kronecker(disc, p) for p in primes}
        phi = {n: ideal_arith._phi_K_local(f, chi.__getitem__) for n, f in factors.items()}
        fields.append((disc, quad_core.class_number(disc), phi))
    rows: list[FeasibilityRow] = []
    for _, group in groupby(by_size, key=itemgetter(0)):
        group = list(group)
        for disc, h, phi in fields:
            for _, a, b in group:
                num = h * phi[a * b]
                rows.append(FeasibilityRow(disc, a, b, Fraction(num, 6 * b), num <= 6 * b * d))
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
    kept as its numerator and denominator, so every comparison is one
    exact product of ints and no Fraction is built.

    ab is factored once and chi read once at each of its primes; every
    prime of a divides ab, so phi_K((a)) is read off the same primes at
    a's exponents.
    """
    _, ideal_arith, quad_core = _field_side()
    if d < 1 or a < 1 or b < 1:
        raise ValueError("need d, a, b >= 1")
    disc = quad_core.require_fundamental(D)
    h = quad_core.class_number(disc)
    factors = factorize(a * b)
    chi = {p: quad_core.kronecker(disc, p) for p, _ in factors}
    a_factors = []
    for p, _ in factors:
        e, rest = 0, a
        while rest % p == 0:
            e, rest = e + 1, rest // p
        if e:
            a_factors.append((p, e))
    h_phi_a = h * ideal_arith._phi_K_local(a_factors, chi.__getitem__)
    h_phi_ab = h * ideal_arith._phi_K_local(factors, chi.__getitem__)
    steps = (
        ChainStep("2d >= h*phi_K(aO)/3", 2 * d, h_phi_a, 3),
        ChainStep("2bd >= h*phi_K(abO)/3", 2 * b * d, h_phi_ab, 3),
        ChainStep("d >= h*phi_K(abO)/(6b)", d, h_phi_ab, 6 * b),
    )
    return ChainAudit(steps=steps)


__all__ = [
    "BoundRun",
    "ChainAudit",
    "ChainStep",
    "ConstantEstimate",
    "FeasibilityRow",
    "SweepRegion",
    "bound_ratio",
    "bound_records",
    "chain_audit",
    "constant_over",
    "feasible_product_cutoff",
    "product_cutoff",
    "refined_table",
    "relaxed_pairs",
    "sweep_region",
]
