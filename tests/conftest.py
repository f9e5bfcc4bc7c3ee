"""Shared test helpers: slow-but-simple oracles independent of the library."""

from __future__ import annotations

from typing import NamedTuple

# the discriminant grid used by the exhaustive group scans
GRID_DISCS = (-3, -4, -7, -8, -11, -15, -20)


class Invocation(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(args: list[str], prog: str = "cli", catch_exceptions: bool = True) -> Invocation:
    """Run ``tcm.cli.main(args, prog)`` in process and capture its exit code,
    stdout and stderr.

    SystemExit sets the exit code (0 if main returns).  With
    catch_exceptions any other exception gives exit code 1, as an uncaught
    one would in a process; without, it propagates.  COLUMNS is 80, so help
    wraps as in any terminal of 80 columns or more and in a pipe.
    """
    import contextlib
    import io
    import os
    from unittest import mock

    from tcm import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, prog)
        except SystemExit as exc:
            code = exc.code or 0
        except Exception:
            if not catch_exceptions:
                raise
            code = 1
    return Invocation(code, out.getvalue(), err.getvalue())


def naive_phi(n: int) -> int:
    """Totient by gcd counting; quadratic, for small oracle work only."""
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def sieve_phi(limit: int) -> list[int]:
    """Totient table by the multiply-out-(1 - 1/p) sweep over a bool sieve."""
    phi = list(range(limit + 1))
    is_comp = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if is_comp[p]:
            continue
        for m in range(p, limit + 1, p):
            if m > p:
                is_comp[m] = 1
            phi[m] = phi[m] // p * (p - 1)
    return phi


def prime_count_bound(x: int) -> int:
    """Upper bound on the number of primes <= x.

    pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, Illinois
    J. Math. 6, 1962, (3.6)).
    """
    from math import log

    return int(1.25506 * x / log(x)) + 1 if x > 1 else 0


# bytes character_table holds per residue at its peak: the int8 table, one
# Legendre table and one chunk of its int64 squares (at most 1 B per
# residue each, 3 B in all); the rest is headroom
CHARACTER_TABLE_BYTES_PER_RESIDUE = 5

# chi over one period for the 2-part -4, 8 or -8 of an even fundamental
# discriminant
_TWO_PART_CHI = {
    -4: (0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def _legendre_table(q: int):
    """The Legendre symbol (r / q) for r = 0 .. q-1, q an odd prime, as int8.

    Marks the squares k^2 mod q for 1 <= k < q/2 as residues, in chunks
    of q/16 int64 squares: with the next chunk built before the last one
    is freed, the temporaries stay under 1 B per residue.
    """
    import numpy as np

    table = np.full(q, -1, dtype=np.int8)
    table[0] = 0
    half = (q + 1) // 2
    step = max(q // 16, 1)
    for lo in range(1, half, step):
        squares = np.arange(lo, min(lo + step, half), dtype=np.int64)
        squares *= squares
        squares %= q
        table[squares] = 1
    return table


def character_table(d: int):
    """chi(r) for r = 0 .. |d|-1 as an int8 array (the character has period |d|);
    the oracle of ``quad_core.chi_table`` and the character ``norm_sieve`` reads.

    Built from the genus characters: a fundamental d is the product of
    the prime discriminants q* = (-1)^((q-1)/2) q over the odd primes
    q | d and a 2-part -4, 8 or -8 (for even d), and chi is the product
    of their characters.  For q* that character is the Legendre symbol
    mod q (quadratic reciprocity; at r = 2 too, as q* = 1 mod 4).  Each
    factor's table is multiplied into chi in place, broadcast over the
    rows of chi seen as a (|d| / period, period) array: no ``kronecker``
    call and no prime sieve, and q | d is found by trial division.
    """
    import numpy as np

    from tcm.primes import factorize
    from tcm.quad_core import require_fundamental

    disc = require_fundamental(d)
    m = -disc.value
    chi = np.ones(m, dtype=np.int8)
    odd = m // (m & -m)  # m & -m is the largest power of 2 dividing m
    for q, _ in factorize(odd):
        rows = chi.reshape(-1, q)
        rows *= _legendre_table(q)
    # the product of the q* is = 1 mod 4, and +-odd
    two_part = disc.value // (odd if odd % 4 == 1 else -odd)
    if two_part != 1:
        rows = chi.reshape(-1, abs(two_part))
        rows *= np.array(_TWO_PART_CHI[two_part], dtype=np.int8)
    return chi


# run argv from a small interpreter and print its exit code and peak RSS
_SPAWN = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_rss(argv: list[str]) -> int:
    """Peak RSS in bytes of one run of argv, from os.wait4 on that child.

    The child is started by a small interpreter, not by the test process:
    Linux copies the peak RSS of the process that spawns a child into the
    child's own peak at exec, so a child of pytest would report at least
    pytest's peak.
    """
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-c", _SPAWN, *argv], capture_output=True, text=True, check=True)
    code, kib = map(int, out.stdout.split())
    assert code == 0, argv
    return kib * 1024


def _sieve_plan(limit: int, chi) -> list[tuple[int, int, int, int]]:
    """(p^k, p, gain, parity) for every power p^k <= limit of a prime
    p <= isqrt(limit), by increasing p^k.

    The running product of the gains over k is the local factor of p^k.
    For an inert p, parity is 1 at odd k and -1 at even k, so that its
    running sum over the powers dividing n is 1 exactly when p^k || n for
    an odd k; for other primes it is 0.
    """
    from math import isqrt

    from tcm.primes import prime_sieve, primes_in

    period = len(chi)
    steps = []
    for p in primes_in(prime_sieve(isqrt(limit))):
        kind = int(chi[p % period])
        gains = {1: (p - 1, p - 1), 0: (p - 1,), -1: (1, p * p - 1)}[kind]
        power, k = p, 1
        while power <= limit:
            gain = gains[k - 1] if k <= len(gains) else p
            steps.append((power, p, gain, (-1) ** (k + 1) if kind == -1 else 0))
            power *= p
            k += 1
    steps.sort()
    return steps


def norm_sieve(limit: int, chi=None):
    """Least phi_K over the ideals of norm n, for n = 0 .. limit, as one
    numpy int32 table; the oracle of the prime-set searches and of the norm
    count, and with every prime ramified (chi = [0], the default None) the
    totient, the oracle of ``primes.phi_sieve``.

    chi is the character table of K, chi(p) = chi[p % len(chi)], of any
    period.  An entry is 0 when no ideal has norm n (and at n = 0).  The
    least phi_K is multiplicative in n, with local factors: split p -> p - 1,
    split p^e (e >= 2) -> p^(e-2)(p-1)^2 (both conjugates present), inert
    p^(2k) -> p^(2k-2)(p^2-1), inert odd powers -> 0, ramified p^e ->
    p^(e-1)(p-1).  Each factor is at most p^e, so every entry is at most n.

    Only the primes p <= r = isqrt(limit) are sieved.  Every power
    p^k <= limit makes one in-place slice over its multiples, which
    multiplies the table by a gain whose running product over k is the
    local factor, and a smooth-part array by p; for an inert p it also adds
    1 at odd k and -1 at even k to an int8 count, which ends nonzero exactly
    where some inert p has an odd exponent.  After the slices an entry has
    at most one prime factor q > r left (q^2 > limit), and it is
    n // smooth; its gain is q - 1, or 0 for an inert q, and the entries
    with a nonzero count are 0.  int32 holds every entry while
    limit < 2^31.
    """
    import numpy as np

    assert limit < 2**31, limit
    if chi is None:
        chi = np.zeros(1, dtype=np.int8)
    steps = _sieve_plan(limit, chi)
    inert = chi.min() < 0
    table = np.ones(limit + 1, dtype=np.int32)
    smooth = np.ones(limit + 1, dtype=np.int32)
    # the number of inert primes p <= isqrt(limit) with an odd power p^k || n
    odd = np.zeros(limit + 1, dtype=np.int8) if inert else None
    for power, p, gain, parity in steps:
        if gain != 1:
            multiples = table[power::power]
            multiples *= gain
        part = smooth[power::power]
        part *= p
        if parity:
            marks = odd[power::power]
            marks += parity
    # n = smooth * q with q = 1 or one prime q > isqrt(limit)
    q = np.arange(limit + 1, dtype=np.int32)
    np.floor_divide(q, smooth, out=q)
    if inert:
        keep = (chi >= 0)[np.remainder(q, len(chi), out=smooth)]
        keep &= odd == 0
    np.subtract(q, 1, out=q)
    np.maximum(q, 1, out=q)  # the gain q - 1, and 1 where q = 1 (and at n = 0)
    if inert:
        np.multiply(q, keep, out=q)  # 0 for an inert q or an odd inert power
    table *= q
    table[0] = 0
    return table


def least_phi_by_norm(d: int, x: int):
    """The least phi_K over the ideals of each norm 0 .. x of the field of
    discriminant d: norm_sieve(x, character_table(d))."""
    return norm_sieve(x, character_table(d))


# norms reduced per numpy step by sieve_window_min, and the relative
# distance from a step's numpy minimum within which a norm is re-evaluated
# with math.log (numpy's log may differ from it in the last bits)
REDUCE_CHUNK = 1 << 16
_LOG_SLACK = 1e-9


def sieve_window_min(table, lo: int, chunk: int = REDUCE_CHUNK) -> tuple[float | None, int, int]:
    """(value, n, norms): the least minphi(n) * loglog n / n over norms
    n >= lo that have an ideal, the smallest such n, and the number of norms
    in the window that have an ideal; the oracle of the search and the
    norm count of ``analytics``.

    table[n] = minphi(n), a ``norm_sieve`` table, reduced in numpy steps of
    chunk norms.  The value is float(minphi(n)) * math.log(math.log(n)) / n,
    the order the ideal-by-ideal scan uses, so it is bit-identical to it.
    """
    import math

    import numpy as np

    best = None
    arg = 0
    norms = 0
    for start in range(lo, len(table), chunk):
        phi = table[start : start + chunk]
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


def sieve_window(d: int, lo: int, x: int) -> tuple[float | None, int, int]:
    """sieve_window_min over the norm sieve of the field of discriminant d up to x."""
    return sieve_window_min(least_phi_by_norm(d, x), lo)


def twelve_digits_settled(value: float, rel_err: float) -> bool:
    """The boundary test ``primes.certified`` made by formatting: value's
    two ends at relative rel_err print the same 12 significant digits."""
    return f"{value * (1 - rel_err):.12g}" == f"{value * (1 + rel_err):.12g}"


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def relaxed_feasible(d: int, a: int, b: int) -> bool:
    """The field-independent test phi(ab)^2 <= 6 b d, with phi by trial division."""
    f = a * b
    for p, _ in trial_factor(a * b):
        f -= f // p
    return f * f <= 6 * b * d


def ideal_count_oracle(d: int, n: int) -> int:
    """Number of ideals of norm exactly n, as the divisor sum of chi."""
    from tcm.quad_core import kronecker

    return sum(kronecker(d, m) for m in range(1, n + 1) if n % m == 0)


def order_discriminants(bound: int) -> list[int]:
    """All valid (fundamental or not) d with |d| <= bound, sorted by |d|."""
    return [v for v in range(-3, -bound - 1, -1) if v % 4 in (0, 1)]


def oracle_bound_records(d_max: int) -> list[tuple[int, int, int]]:
    """(bound, a, b) of B(d) for d = 1 .. d_max, by the plain double loop.

    Scans every a <= 12 d_max and every multiple n of a up to the product
    cutoff at d_max, scatters each pair into the degree where it first
    becomes feasible, and takes a running maximum (largest size, then
    smallest a).  Independent of the library's totient table and of its
    per-a cutoffs.
    """
    from tcm.feasibility import feasible_product_cutoff

    n_max = feasible_product_cutoff(d_max)
    phi = sieve_phi(n_max)
    slots: list[tuple[int, int] | None] = [None] * (d_max + 1)
    for a in range(1, 12 * d_max + 1):
        for n in range(a, n_max + 1, a):
            f = phi[n]
            six_n = 6 * n
            activation = (f * f * a + six_n - 1) // six_n
            if activation > d_max:
                continue
            size = a * n
            cur = slots[activation]
            if cur is None or size > cur[0] or (size == cur[0] and a < cur[1]):
                slots[activation] = (size, a)
    records = []
    best = None
    for d in range(1, d_max + 1):
        cand = slots[d]
        if cand is not None and (
            best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1])
        ):
            best = cand
        size, a = best
        records.append((size, a, size // (a * a)))
    return records


def oracle_sweep_region(d_max: int):
    """``sweep_region`` by a fresh ``product_cutoff`` per a, each doubling
    from 64: the per-a loop the one-pass cutoffs replaced."""
    from tcm.feasibility import SweepRegion, feasible_product_cutoff, product_cutoff

    n_max = feasible_product_cutoff(d_max)
    a_max = pairs = 0
    for a in range(1, 12 * d_max + 1):
        cutoff = product_cutoff(6 * d_max / a)
        if cutoff < a:
            break
        a_max, pairs = a, pairs + min(n_max, cutoff) // a
    return SweepRegion(n_max=n_max, a_max=a_max, pairs_scanned=pairs)


# multiples of a per numpy step of sweep_activations
_SWEEP_STEP = 1 << 15


def sweep_activations(d_max: int):
    """Yield (a, n, degree) for every pair (a, n = ab) of the proven region
    of d_max that passes by degree d_max: a numpy sweep over the totient
    sieve, a route to B(d) that shares nothing with the prime-set search.

    degree[i] = ceil(a phi(n)^2 / (6 n)) is the least d at which (a, n[i])
    passes.  The totient is one ``norm_sieve`` table with every prime
    ramified; each a's multiples come in steps of ``_SWEEP_STEP``.  The
    region's per-a cutoffs n_hi = min(n_max, M(6 d_max / a)) come from
    ``product_cutoff`` here, for a up to the region's a_max.  phi(n) <=
    n_max(10^6) < 2^31, and a phi(n)^2 <= n_hi a M(6 d_max / a), about
    n_max^2 < 2^63.
    """
    import numpy as np

    from tcm.feasibility import product_cutoff, sweep_region

    region = sweep_region(d_max)
    phi = norm_sieve(region.n_max)
    for a in range(1, region.a_max + 1):
        n_hi = min(region.n_max, product_cutoff(6 * d_max / a))
        for start in range(a, n_hi + 1, a * _SWEEP_STEP):
            stop = min(n_hi, start + a * (_SWEEP_STEP - 1))
            n = np.arange(start, stop + 1, a, dtype=np.int64)
            lhs = phi[start : stop + 1 : a].astype(np.int64)
            lhs *= lhs
            lhs *= a
            six_n = 6 * n
            keep = lhs <= six_n * d_max
            six_n = six_n[keep]
            yield a, n[keep], (lhs[keep] + six_n - 1) // six_n


def sweep_bound_records(d_max: int) -> list[tuple[int, int, int]]:
    """(bound, a, b) of B(d) for d = 1 .. d_max, from the sweep's pairs.

    Each pair is reduced into its activation degree, keyed by (size a n,
    then smallest a), and a running maximum over the degrees gives every
    B(d) at once.
    """
    import numpy as np

    from tcm.feasibility import sweep_region

    bits = sweep_region(d_max).a_max.bit_length()
    shift = 1 << bits  # key = size * shift + (shift - a), a < shift
    best = np.zeros(d_max + 1, dtype=np.int64)
    for a, n, degree in sweep_activations(d_max):
        np.maximum.at(best, degree, a * n * shift + (shift - a))
    np.maximum.accumulate(best, out=best)  # (a, b) = (1, 1) activates at d = 1
    size = (best[1:] >> bits).tolist()
    a = (shift - (best[1:] & (shift - 1))).tolist()
    return [(m, k, m // (k * k)) for m, k in zip(size, a)]


def expand_runs(runs) -> list[tuple[int, int, int]]:
    """(bound, a, b) per degree of the runs of bound_records: (B, 1, B)."""
    return [(run.bound, 1, run.bound) for run in runs for _ in range(run.d_lo, run.d_hi + 1)]


def oracle_min_phi(d: int, x: int) -> dict[int, object]:
    """For each norm n <= x that has an ideal, the first ideal of norm n in
    the enumeration stream with the least phi_K, by listing every ideal."""
    from tcm.ideal_arith import ideal_norm, ideals_up_to_norm, phi_K

    best: dict[int, object] = {}
    for ideal in ideals_up_to_norm(d, x):
        n = ideal_norm(ideal)
        if n not in best or phi_K(ideal) < phi_K(best[n]):
            best[n] = ideal
    return best


def oracle_scan(d: int, x: int, lo: int) -> tuple[float, object]:
    """min of phi_K(c) loglog N(c) / N(c) over ideals with lo <= N(c) <= x,
    ideal by ideal over the enumeration stream (first strict minimum wins)."""
    import math

    from tcm.ideal_arith import ideal_norm, ideals_up_to_norm, phi_K

    best_value, best_ideal = None, None
    for ideal in ideals_up_to_norm(d, x):
        norm = ideal_norm(ideal)
        if norm < lo:
            continue
        value = phi_K(ideal) * math.log(math.log(norm)) / norm
        if best_value is None or value < best_value:
            best_value, best_ideal = value, ideal
    return best_value, best_ideal


def oracle_reduced_forms(d: int) -> set[tuple[int, int, int]]:
    """The reduced primitive forms (a, b, c) of discriminant d, a-first:
    every |b| <= a <= sqrt(|d|/3), with c from the discriminant."""
    from math import gcd, isqrt

    forms = set()
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.add((a, b, c))
    return forms


def reduced_triples(value: int):
    """The reduced primitive forms (a, b, c) of discriminant value with b >= 0,
    b-first: the triples ``quad_core._form_count`` counts.

    b = value mod 2 up to sqrt(|value|/3), q = (b^2 - value)/4, and a runs
    over the divisors of q with b <= a <= sqrt(q), c = q/a.  The form
    (a, -b, c) is reduced too exactly when 0 < b < a < c.
    """
    from math import gcd, isqrt

    for b in range(value % 2, isqrt(-value // 3) + 1, 2):
        q = (b * b - value) // 4
        for a in range(max(b, 1), isqrt(q) + 1):
            if q % a == 0 and gcd(gcd(a, b), q // a) == 1:
                yield a, b, q // a


def full_period_class_number(d: int) -> int:
    """h(d) = w |T| / (2m) with T = sum of chi(k) k over 0 < k < m = |d|, for
    fundamental d: the oracle of the half-range sum of
    ``quad_core.class_number_dirichlet``, with chi from ``character_table``.

    Why the two agree, for d < -4 (w = 2): let S and U be the sums of
    chi(k) and chi(k) k over 0 < k < m/2.  As chi(m - k) = -chi(k), pairing
    k with m - k gives T = 2U - mS.  For odd m, split T into even k = 2j
    and odd k = m - 2j (0 < j < m/2): T = 2 chi(2) U - chi(2) (mS - 2U),
    so T = chi(2) (2T + mS), T = -mS / (2 - chi(2)) for chi(2) = +-1, and
    h = |T| / m = S / (2 - chi(2)).  For even m, chi(2) = 0 and chi(k + m/2)
    = -chi(k), so T = U - (U + mS/2) = -mS/2 and h = S/2 again.
    """
    m = -d
    w = {-3: 6, -4: 4}.get(d, 2)
    total = sum(k * chi for k, chi in enumerate(character_table(d).tolist()))
    num = w * abs(total)
    assert num % (2 * m) == 0, d
    return num // (2 * m)


def oracle_unit_pairs(d: int, n: int) -> list[tuple[int, int]]:
    """The pairs (x, y) mod n whose norm x^2 + dxy + ((d^2 - d)/4) y^2 is a
    unit mod n, by one gcd per pair, in (x, y) order."""
    from math import gcd

    quad = (d * d - d) // 4
    return [
        (x, y)
        for x in range(n)
        for y in range(n)
        if gcd((x * x + d * x * y + quad * y * y) % n, n) == 1
    ]


def pair_times(d: int, n: int, ux: int, uy: int, vx: int, vy: int) -> tuple[int, int]:
    """(ux + uy w)(vx + vy w) mod n as its pair, where w = (d + sqrt(d))/2
    satisfies w^2 = q + d w with q = (d - d^2)/4: the group law that
    ``galois_image.max_stabilizer_order`` applies inline."""
    qm, dm = (d - d * d) // 4 % n, d % n
    return (ux * vx + qm * uy * vy) % n, (ux * vy + uy * vx + dm * uy * vy) % n


def oracle_matrix(d: int, n: int, x: int, y: int) -> list[list[int]]:
    """The 2x2 matrix mod n of multiplication by x + y w, w = (d + sqrt(d))/2,
    in the basis 1, w: [[x, q y], [y, x + d y]] with q = (d - d^2)/4 = w^2 - d w.
    Its determinant is the norm x^2 + dxy + ((d^2 - d)/4) y^2."""
    q = (d - d * d) // 4
    return [[x % n, q * y % n], [y % n, (x + d * y) % n]]


def oracle_max_stabilizer_order(d: int, p: int, A: int) -> int:
    """Largest number of candidates fixing a point, by testing every
    candidate against every point: candidates are the units mod p^(A+1)
    (those = 1 mod p^A when A >= 1), points the nonzero ones (those
    outside pO when A >= 1)."""
    import numpy as np

    n = p ** (A + 1)
    pairs = np.array(oracle_unit_pairs(d, n), dtype=np.int64)
    xs, ys = pairs[:, 0], pairs[:, 1]
    if A == 0:
        candidates = np.ones(len(xs), dtype=bool)
    else:
        small = p**A
        candidates = (xs % small == 1) & (ys % small == 0)
    entry_q = (d - d * d) // 4
    grid = np.arange(n, dtype=np.int64)
    vx = np.repeat(grid, n)
    vy = np.tile(grid, n)
    if A == 0:
        point_mask = (vx != 0) | (vy != 0)
    else:
        point_mask = (vx % p != 0) | (vy % p != 0)
    counts = np.zeros(n * n, dtype=np.int64)
    qm, dm = entry_q % n, d % n
    for a, b in zip(xs[candidates].tolist(), ys[candidates].tolist()):
        gx = (a * vx + qm * b % n * vy) % n
        gy = (b * vx + (a + b * dm) % n * vy) % n
        counts += (gx == vx) & (gy == vy)
    return int(counts[point_mask].max())
