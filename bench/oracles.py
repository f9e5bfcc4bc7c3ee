"""Independent oracles for the benchmark's output checks.

Nothing here imports tcm.  Each quantity is recomputed from its
definition by a different method than the program uses (trial-division
totients, a numpy degree sweep, a multiplicative norm sieve, Euler's
criterion for the character), so a check that compares the two can fail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

EULER_GAMMA = 0.5772156649015329


def factorize(n: int) -> list[tuple[int, int]]:
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


def totient(n: int) -> int:
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def fundamental_discriminants(bound: int) -> list[int]:
    """Fundamental D < 0 with |D| <= bound, sorted by |D|."""
    out = []
    for m in range(3, bound + 1):
        if m % 4 == 3 and squarefree(m):
            out.append(-m)
        elif m % 4 == 0 and (m // 4) % 4 in (1, 2) and squarefree(m // 4):
            out.append(-m)
    return out


def chi(D: int, p: int) -> int:
    """Kronecker character of the fundamental discriminant D at a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 == 1 else -1)
    r = pow(D % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def splitting(D: int, p: int) -> str:
    return {1: "split", -1: "inert", 0: "ramified"}[chi(D, p)]


def unit_count(D: int) -> int:
    return {-3: 6, -4: 4}.get(D, 2)


def class_number(D: int) -> int:
    """Count of reduced primitive forms (a, b, c) with b^2 - 4ac = D."""
    h = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, abs(b)), c) != 1:
                continue
            h += 1
    return h


def phi_K_of_N(D: int, n: int) -> int:
    """phi_K of the principal ideal (n), from the local factor of each p^e || n."""
    result = 1
    for p, e in factorize(n):
        kind = splitting(D, p)
        if kind == "split":
            result *= (p ** (e - 1) * (p - 1)) ** 2
        elif kind == "inert":
            result *= p ** (2 * e - 2) * (p * p - 1)
        else:
            result *= p ** (2 * e - 1) * (p - 1)
    return result


def primes_up_to(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def totients(limit: int) -> np.ndarray:
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes_up_to(limit).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def product_cutoff(d: int) -> int:
    """M with phi(n)^2 <= 6 n d => n <= M.

    Rosser-Schoenfeld: n / phi(n) < e^gamma loglog n + 2.50637 / loglog n
    for n >= 3 (3 in place of 2.50637 for slack), so a feasible n obeys
    n < 6 d (e^gamma loglog n + 3 / loglog n)^2, a bound that grows more
    slowly than n once n is past a small threshold.
    """

    def envelope(n: float) -> float:
        ll = math.log(math.log(n))
        return math.exp(EULER_GAMMA) * ll + 3.0 / ll

    limit = 64
    while limit <= 6 * d * envelope(limit) ** 2:
        limit *= 2
    return int(6 * d * envelope(limit) ** 2) + 1


class DegreeSweep:
    """B(d) for every d <= d_max by an independent numpy sweep.

    A pair (a, n = ab) is feasible at degree d iff a phi(n)^2 <= 6 n d;
    a > 12 d is never feasible because phi(n)^2 >= n / 2.  B(d) is the
    largest a * n over pairs feasible at d, ties toward the smallest a.
    """

    _SHIFT = 1 << 20

    def __init__(self, d_max: int):
        n_max = product_cutoff(d_max)
        if 12 * d_max >= self._SHIFT:
            raise ValueError("d_max too large for the packed key")
        phi = totients(n_max)
        best = np.zeros(d_max + 1, dtype=np.int64)
        activations = []
        for a in range(1, 12 * d_max + 1):
            n = np.arange(a, n_max + 1, a, dtype=np.int64)
            f = phi[n]
            act = (f * f * a + 6 * n - 1) // (6 * n)
            ok = act <= d_max
            if ok.any():
                act, n = act[ok], n[ok]
                np.maximum.at(best, act, a * n * self._SHIFT + (self._SHIFT - a))
                activations.append(act)
        self._best = np.maximum.accumulate(best)
        self._feasible = np.cumsum(np.bincount(np.concatenate(activations), minlength=d_max + 1))

    def record(self, d: int) -> tuple[int, int, int]:
        """(bound, a, b) of B(d)."""
        key = int(self._best[d])
        size, a = key // self._SHIFT, self._SHIFT - key % self._SHIFT
        return size, a, size // (a * a)

    def feasible_pairs(self, d: int) -> int:
        """Number of pairs (a, n) feasible at degree d."""
        return int(self._feasible[d])


def ratio(d: int, size: int) -> float:
    return size / (d * math.log(math.log(d)))


def relaxed_pairs(d: int) -> list[tuple[int, int]]:
    """Every (a, b) with phi(ab)^2 <= 6 b d, sorted."""
    n_max = product_cutoff(d)
    return sorted(
        (a, n // a)
        for n in range(1, n_max + 1)
        for a in range(1, min(12 * d, n) + 1)
        if n % a == 0 and totient(n) ** 2 * a <= 6 * n * d
    )


class NormTable:
    """Ideal count and minimal phi_K per norm n <= x, by a multiplicative sieve.

    Over the ideals of norm n, the minimum of phi_K is multiplicative in n
    with local factors: split p^e -> p^(e-2)(p-1)^2 for e >= 2 and p - 1
    for e = 1; inert p^(2k) -> p^(2k-2)(p^2-1) (odd powers have no ideal);
    ramified p^e -> p^(e-1)(p-1).
    """

    def __init__(self, D: int, x: int):
        self.D, self.x = D, x
        spf = list(range(x + 1))
        for p in range(2, isqrt(x) + 1):
            if spf[p] == p:
                for m in range(p * p, x + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        count = [0] * (x + 1)
        minphi = [0] * (x + 1)
        count[1] = minphi[1] = 1
        kinds: dict[int, str] = {}
        for n in range(2, x + 1):
            p = spf[n]
            e, m = 0, n
            while m % p == 0:
                m //= p
                e += 1
            kind = kinds.setdefault(p, splitting(D, p))
            if kind == "split":
                c, f = e + 1, (p - 1) if e == 1 else p ** (e - 2) * (p - 1) ** 2
            elif kind == "inert":
                c, f = (1, p ** (e - 2) * (p * p - 1)) if e % 2 == 0 else (0, 0)
            else:
                c, f = 1, p ** (e - 1) * (p - 1)
            count[n] = count[m] * c
            minphi[n] = minphi[m] * f if count[n] else 0
        self.count, self.minphi = count, minphi

    def ideals(self) -> int:
        return sum(self.count)

    def scan_min(self, lo: int = 3) -> tuple[float, int]:
        """min of phi_K * loglog N / N over ideals with lo <= N <= x, with its norm."""
        best, arg = math.inf, 0
        for n in range(max(lo, 3), self.x + 1):
            if self.count[n]:
                value = self.minphi[n] * math.log(math.log(n)) / n
                if value < best:
                    best, arg = value, n
        return best, arg

    def parse_ideal(self, text: str) -> tuple[int, int]:
        """(norm, phi_K) of an ideal printed as e.g. 'P2.0^2*P3*P7.1'."""
        norm = phi = 1
        for part in text.split("*"):
            tag, _, exp = part.partition("^")
            p = int(tag[1:].split(".")[0])
            q = p * p if splitting(self.D, p) == "inert" else p
            e = int(exp) if exp else 1
            norm *= q**e
            phi *= q ** (e - 1) * (q - 1)
        return norm, phi


def landau_target(D: int) -> float:
    l1 = 2.0 * math.pi * class_number(D) / (unit_count(D) * math.sqrt(-D))
    return math.exp(-EULER_GAMMA) / l1


def mertens(x: int) -> tuple[float, int]:
    ps = primes_up_to(x).astype(np.float64)
    return float(np.exp(np.log1p(-1.0 / ps).sum())), len(ps)


def char_product(D: int, x: int) -> tuple[float, int]:
    ps = primes_up_to(x)
    chis = np.array([chi(D, p) for p in ps.tolist()], dtype=np.float64)
    return float(np.exp(np.log1p(-chis / ps).sum())), len(ps)


def degree_bounds(D: int, n: int) -> tuple[Fraction, Fraction, int]:
    """(lower_weak, lower, upper) of the ray class degree sandwich for (n)."""
    upper = class_number(D) * phi_K_of_N(D, n)
    return Fraction(upper, 6), Fraction(upper, unit_count(D)), upper
