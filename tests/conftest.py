"""Shared test helpers: slow-but-simple oracles independent of the library."""

from __future__ import annotations

# the discriminant grid used by the exhaustive group scans
GRID_DISCS = (-3, -4, -7, -8, -11, -15, -20)


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
