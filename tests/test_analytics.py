import math
import sys
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from tcm import analytics
from tcm.analytics import (
    char_euler_product,
    l1_from_class_number,
    landau_liminf_check,
    mertens_product,
    phi_bound_scan,
    product_bytes,
    scan_bytes,
)
from tcm.ideal_arith import ideal_norm, ideals_up_to_norm, min_phi_ideal, phi_K, principal_ideal
from tcm.primes import EULER_GAMMA, factorize, prime_sieve, primes_in
from tcm.quad_core import (
    Splitting,
    chi_table,
    class_number_dirichlet,
    fundamental_discriminants,
    require_fundamental,
)

from conftest import (
    REDUCE_CHUNK,
    character_table,
    invoke,
    kronecker,
    least_phi_by_norm,
    oracle_scan,
    sieve_window,
    sieve_window_min,
    traced_peak,
)


def test_mertens_single_factor():
    est = mertens_product(2)
    assert est.value == 0.5
    assert est.terms == 1


def test_mertens_small_exact_rational_oracle():
    exact = Fraction(1)
    for p in primes_in(prime_sieve(10)):
        exact *= Fraction(p - 1, p)
    assert exact == Fraction(8, 35)
    est = mertens_product(10)
    assert est.value == pytest.approx(float(exact), rel=1e-12)
    assert est.terms == 4


def test_mertens_asymptotic_at_million():
    est = mertens_product(10**6)
    scaled = est.value * math.exp(EULER_GAMMA) * math.log(10**6)
    assert 0.99 <= scaled <= 1.01
    assert est.terms == 78498


def decimal_product(chi, x: int) -> Decimal:
    """prod over primes p <= x of (1 - chi(p)/p) to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        value = Decimal(1)
        for p in primes_in(prime_sieve(x)):
            value *= 1 - Decimal(chi(p)) / p
        return value


# the 12 printed digits against a 50-digit oracle; a sequential float
# product misses the last digit at the first three x and at (-24, 436)
@pytest.mark.parametrize("x", [4910, 42352, 57581, 10**6])
def test_mertens_printed_digits_match_decimal_oracle(x):
    oracle = decimal_product(lambda p: 1, x)
    assert f"{mertens_product(x).value:.12g}" == f"{oracle:.12g}"


def test_certificate_bounds_the_log_sum(monkeypatch):
    # M, read back from the error bound u (12 M + 4) passed to certified,
    # is above the sum of log(p / (p - 1)) over p <= x, here to 40 digits:
    # log x below x = 286, then Rosser and Schoenfeld's bound, within 0.1%
    # of the sum at x = 10^6
    bounds = []
    monkeypatch.setattr(analytics, "certified", lambda value, rel_err, *args: bounds.append(rel_err) or value)
    grid = sorted({int(10 ** (k / 4)) for k in range(2, 25)} | {285, 286})
    primes = list(primes_in(prime_sieve(grid[-1])))
    with localcontext() as ctx:
        ctx.prec = 40
        product, done = Decimal(1), 0
        for x in grid:
            for p in primes[done : bisect_right(primes, x)]:
                product = product * p / (p - 1)
            done = bisect_right(primes, x)
            mertens_product(x)
            mass = (Decimal(bounds.pop()) * 2**53 - 4) / 12
            assert product.ln() < mass, x
            if x < 286:
                assert float(mass) == pytest.approx(math.log(x), rel=1e-14)
    assert mass < product.ln() * Decimal("1.001")


def test_char_product_printed_digits_match_decimal_oracle():
    oracle = decimal_product(lambda p: kronecker(-24, p), 436)
    assert f"{char_euler_product(-24, 436).value:.12g}" == f"{oracle:.12g}"


# each exact value lies within 10^-16 of a 12-digit rounding boundary, on
# the side a float log sum misses; (-47, 277) is 0.43001578824150000420...
@pytest.mark.parametrize("d, x", [(-8, 1847), (-43, 3803), (-47, 277), (-47, 6199)])
def test_char_product_digits_next_to_a_rounding_boundary(d, x):
    oracle = decimal_product(lambda p: kronecker(d, p), x)
    assert f"{char_euler_product(d, x).value:.12g}" == f"{oracle:.12g}"


def test_char_product_examples():
    assert char_euler_product(-4, 2).value == 1.0
    est = char_euler_product(-4, 5)
    assert est.value == pytest.approx(16 / 15, rel=1e-12)


def test_char_product_small_exact_rational_oracle():
    for d in (-4, -7, -23):
        exact = Fraction(1)
        for p in primes_in(prime_sieve(50)):
            exact *= Fraction(p - kronecker(d, p), p)
        assert char_euler_product(d, 50).value == pytest.approx(float(exact), rel=1e-12)


def test_char_product_converges_to_inverse_l1():
    est = char_euler_product(-163, 10**4)
    l1 = l1_from_class_number(-163)
    assert abs(1.0 / est.value - l1) / l1 < 0.10


def test_l1_examples():
    assert l1_from_class_number(-4) == pytest.approx(math.pi / 4, rel=1e-15)
    assert l1_from_class_number(-3) == pytest.approx(2 * math.pi / (6 * math.sqrt(3)), rel=1e-15)
    assert l1_from_class_number(-23) == pytest.approx(3 * math.pi / math.sqrt(23), rel=1e-15)


def test_character_table_is_periodic():
    for d in (-4, -7, -23):
        table = character_table(d)
        m = -d
        for n in range(1, 3 * m):
            assert table[n % m] == kronecker(d, n)


def test_phi_bound_scan_single_candidate():
    result = phi_bound_scan(-4, 4)
    assert result.min_value == pytest.approx(2 * math.log(math.log(4)) / 4, rel=1e-12)
    assert ideal_norm(result.argmin_ideal) == 4


def test_phi_bound_scan_examples():
    result = phi_bound_scan(-4, 100)
    assert result.min_value > 0
    # the minimizer is built from the smallest ramified/split primes
    assert all(P.splitting != Splitting.INERT for P, _ in result.argmin_ideal.factors)
    assert phi_bound_scan(-3, 100).min_value > 0


def test_phi_bound_scan_empty_window():
    # no ideal of Q(i) has norm exactly 3
    with pytest.raises(ValueError):
        phi_bound_scan(-4, 3)


@pytest.mark.parametrize(
    "d,x",
    [(d, 10**3) for d in fundamental_discriminants(100)] + [(-3, 10**4), (-4, 10**4), (-84, 10**4)],
)
def test_scans_match_ideal_by_ideal_oracle(d, x):
    result = phi_bound_scan(d, x)
    value, ideal = oracle_scan(d, x, 3)
    assert result.min_value.hex() == value.hex()
    assert str(result.argmin_ideal) == str(ideal)
    assert result.argmin_ideal == ideal
    tail, _ = oracle_scan(d, x, x // 10)
    assert landau_liminf_check(d, x).empirical_min_tail.hex() == tail.hex()


@pytest.mark.parametrize("chunk", [20, REDUCE_CHUNK])
@pytest.mark.parametrize("step", [45, 64])
@pytest.mark.parametrize("d", [-3, -4, -7])
def test_streamed_window_min_matches_one_table(d, step, chunk):
    # the sieve oracle's chunked reduction against one math.log minimum:
    # lo = 3, and lo = x // 10 on, just before, at and just after multiples
    # of step, which is not a multiple of either chunk
    cases = [(k * step + s, 3) for k in (2, 7) for s in (-1, 0, 1)]
    cases += [(10 * (k * step + s), k * step + s) for k in (2, 7) for s in (-1, 0, 1)]
    for x, lo in cases:
        table = least_phi_by_norm(d, x)
        # the first of the least values, and the norms with an ideal
        values = [
            float(table[n]) * math.log(math.log(n)) / n if table[n] else math.inf
            for n in range(lo, x + 1)
        ]
        best = min(values)
        norms = int(np.count_nonzero(table[lo:]))
        assert sieve_window_min(table, lo, chunk) == (best, lo + values.index(best), norms), (x, lo)


def search_and_count(d: int, lo: int, x: int) -> tuple[float | None, int, int]:
    """The search's (value, n) and the recursions' norm count over [lo, x]."""
    disc = require_fundamental(d)
    table = chi_table(disc, min(-d, x + 1))
    value, n, _ = analytics._window_min(disc, lo, x, table)
    ramified = [p for p, _ in factorize(-d)]
    count = analytics._norm_count
    return value, n, count(disc, x, ramified, table) - count(disc, lo - 1, ramified, table)


# every fundamental |D| <= 200, x = 10^2 .. 10^5, lo = 3 and x // 10: 496 cases
GRID_FIELDS = fundamental_discriminants(200)
GRID_XS = [10**2, 10**3, 10**4, 10**5]


@pytest.mark.parametrize("x", GRID_XS)
def test_search_and_count_match_sieve_oracle(x):
    for d in GRID_FIELDS:
        for lo in (3, x // 10):
            assert search_and_count(d, lo, x) == sieve_window(d, lo, x), (d, lo, x)


@pytest.mark.parametrize(
    "d,lo,x",
    [
        # x around 2^16, an even power of 2; -3 has an inert 2, -4 a ramified 2
        *[(d, lo, x) for d in (-3, -4, -7) for x in (2**16 - 1, 2**16, 2**16 + 1) for lo in (3, x // 10)],
        # the smallest windows: 3 and 4 are norms of -3; 3 is inert in
        # Q(i), so [3, 3] holds no norm of -4
        *[(d, 3, x) for d in (-3, -4, -7, -8) for x in (3, 4, 5)],
        # |D| above x, so chi is read over n <= x, not over a period
        *[(d, lo, x) for d in (-1003, -10007, -40004) for x in (100, 1000) for lo in (3, x // 10)],
    ],
)
def test_search_and_count_edge_cases(d, lo, x):
    assert search_and_count(d, lo, x) == sieve_window(d, lo, x)


@pytest.mark.parametrize("d", [-3, -4, -8, -24, -20020, -15015, -1003, -100000000003])
def test_chi_table_matches_kronecker(d):
    # the period |d| may be shorter or longer than the table
    disc = require_fundamental(d)
    for size in (2, 3, 97, 3000):
        table = chi_table(disc, size)
        assert [(0, 1, -1)[c] for c in table] == [0] + [kronecker(d, n) for n in range(1, size)], size


@pytest.mark.parametrize("d", [-3, -4, -7, -15, -23, -84, -1003])
def test_norm_count_matches_ideal_enumeration(d):
    norms = sorted({ideal_norm(ideal) for ideal in ideals_up_to_norm(d, 600)})
    disc = require_fundamental(d)
    ramified = [p for p, _ in factorize(-d)]
    table = chi_table(disc, min(-d, 601))
    for x in range(1, 601):
        assert analytics._norm_count(disc, x, ramified, table) == bisect_right(norms, x), (d, x)


def twelve_digits(value) -> float:
    """A float or Decimal rounded to the 12 significant digits the CLI prints."""
    return float(f"{value:.12g}")


def decimal_scan_value(phi: int, n: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return phi * Decimal(n).ln().ln() / n


@pytest.mark.parametrize("x", GRID_XS)
def test_scan_digits_match_decimal_oracle(x):
    # the 12 printed digits of both minima against phi loglog n / n in
    # 40-digit decimal at the sieve oracle's argmin
    for d in GRID_FIELDS:
        for lo, value in ((3, phi_bound_scan(d, x).min_value), (x // 10, landau_liminf_check(d, x).empirical_min_tail)):
            _, n, _ = sieve_window(d, lo, x)
            oracle = decimal_scan_value(phi_K(min_phi_ideal(d, n)), n)
            assert twelve_digits(value) == twelve_digits(oracle), (d, lo, x)


# minphi(n) loglog n / n at these norms lies next to a 12-digit rounding
# boundary, where the float expression prints a wrong last digit
@pytest.mark.parametrize("d,n", [(-3, 12096), (-4, 118850), (-7, 1321072), (-8, 198249)])
def test_scan_value_next_to_a_rounding_boundary(d, n):
    phi = phi_K(min_phi_ideal(d, n))
    oracle = decimal_scan_value(phi, n)
    assert twelve_digits(float(phi) * math.log(math.log(n)) / n) != twelve_digits(oracle)
    assert twelve_digits(analytics._scan_value(phi, n)) == twelve_digits(oracle)


def test_scans_record_their_window():
    result = phi_bound_scan(-4, 100)
    assert result.window == (3, 100)
    # norms in [3, 100] with no prime = 3 mod 4 to an odd power
    assert result.norms == 41
    check = landau_liminf_check(-4, 200)
    assert check.window == (20, 200)
    assert check.norms == 68


@pytest.mark.parametrize("disc", ["-84", "-100003"])
@pytest.mark.parametrize("command", ["scan", "landau"])
def test_scans_read_chi_from_one_table(monkeypatch, command, disc):
    # the search and both norm counts read chi(p) from one chi_table, over
    # a period at -84 and over x + 1 residues at -100003, so _chi_at_prime
    # runs once per prime, inside chi_table (quad_core has no kronecker);
    # analytics holds no reference to it that would bypass the wrapper
    from tcm import quad_core

    calls = []

    def counting(name):
        fn = getattr(quad_core, name)

        def wrapper(d, n):
            calls.append((name, sys._getframe(1).f_code.co_name, n))
            return fn(d, n)

        return wrapper

    assert not hasattr(quad_core, "kronecker")
    monkeypatch.setattr(quad_core, "_chi_at_prime", counting("_chi_at_prime"))
    assert not hasattr(analytics, "_chi_at_prime")
    result = invoke(["analytics", command, "--disc", disc, "--x", "10000"])
    assert result.exit_code == 0, result.stderr
    size = min(-int(disc), 10001)
    assert calls == [("_chi_at_prime", "chi_table", p) for p in primes_in(prime_sieve(size - 1))]


@pytest.mark.parametrize("d,x", [(-100003, 100), (-4, 10**6), (-100000000003, 10**6)])
def test_product_bytes_bounds_measured_peak(d, x):
    # the fixed part sets the peak at (-100003, 100), the prime sieve at
    # (-4, 10^6), and chi's table over x + 1 residues beside it at
    # (-100000000003, 10^6)
    assert traced_peak(char_euler_product, d, x) <= product_bytes(d, x)


@pytest.mark.parametrize("x", [10**4, 2 * 10**5, 10**6])
def test_scan_bytes_bounds_measured_peak(x):
    # -3: an inert 2, the most zeroed slices; -4: a ramified 2
    for d in (-3, -4):
        assert traced_peak(phi_bound_scan, d, x) <= scan_bytes(d, x)
        assert traced_peak(landau_liminf_check, d, x) <= scan_bytes(d, x)


def test_scan_bytes_bounds_measured_peak_at_large_disc():
    # where |d| > x = 10^5, chi's table and its prime sieve over x + 1
    # residues set the peak, about 3.2 B each; at x = 100 the fixed part
    # does.  landau's class number is a form count, too slow at 10^11 + 3.
    for d, x in ((-100003, 100), (-1000003, 10**5), (-100000000003, 10**5)):
        assert traced_peak(phi_bound_scan, d, x) <= scan_bytes(d, x), (d, x)
        if -d < 10**9:
            assert traced_peak(landau_liminf_check, d, x) <= scan_bytes(d, x), (d, x)


def test_landau_liminf_directional_check():
    result = landau_liminf_check(-4, 10**4)
    assert result.target == pytest.approx(
        math.exp(-EULER_GAMMA) / l1_from_class_number(-4), rel=1e-15
    )
    ratio = result.empirical_min_tail / result.target
    # at this cutoff the tail minimum sits a bit below the limit value
    assert 0.75 <= ratio <= 3.0
    assert result.empirical_min_tail < result.target

    both = landau_liminf_check(-3, 10**4)
    assert both.empirical_min_tail > 0 and both.target > 0


def test_landau_tail_minimum_mostly_below_target():
    # the counts the landau_liminf_check docstring states (10^6 is slow)
    discs = fundamental_discriminants(200)
    assert len(discs) == 62
    expected = {
        10**3: [-139],
        10**4: [-52, -139],
        10**5: [-43, -52, -127, -139, -195],
    }
    for x, not_below in expected.items():
        checks = {d: landau_liminf_check(d, x) for d in discs}
        assert [d for d, c in checks.items() if not c.empirical_min_tail < c.target] == not_below
        ratios = [c.empirical_min_tail / c.target for c in checks.values()]
        assert 0.46 <= min(ratios) and max(ratios) <= 1.08


def euler_maclaurin_gamma(prec: int) -> Decimal:
    """Euler's constant from H_n - log n - 1/(2n) + sum of B_2k / (2k n^2k),
    k = 1 .. 10, at n = 1000: the first omitted term is below 10^-63."""
    bernoulli = [Fraction(1)]
    for m in range(1, 21):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    n = 1000
    tail = sum(bernoulli[2 * k] / (2 * k * n ** (2 * k)) for k in range(1, 11))
    rational = sum(Fraction(1, j) for j in range(1, n + 1)) - Fraction(1, 2 * n) + tail
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(rational.numerator) / rational.denominator - Decimal(n).ln()


PI_60 = "3.14159265358979323846264338327950288419716939937510582097494"


def test_landau_constants_to_fifty_digits():
    with localcontext() as ctx:
        ctx.prec = 70
        assert abs(Decimal(analytics._EULER_GAMMA_50) - euler_maclaurin_gamma(70)) < Decimal("1e-50")
        ctx.prec = 60
        assert str(analytics._decimal_pi()) == PI_60


def decimal_landau_target(d: int, gamma: Decimal) -> Decimal:
    """e^-gamma w sqrt|d| / (2 pi h) in 40-digit decimal, h from the character sum."""
    w = {-3: 6, -4: 4}.get(d, 2)
    with localcontext() as ctx:
        ctx.prec = 40
        return (-gamma).exp() * w * Decimal(-d).sqrt() / (2 * Decimal(PI_60) * class_number_dirichlet(d))


# where the float target lies next to a 12-digit rounding boundary, so that
# its digits come from the exact value
LANDAU_EXACT_PATH = (-5331, -7604, -7732, -7736, -9347)


def test_landau_target_digits_match_decimal_oracle():
    gamma = euler_maclaurin_gamma(60)
    for d in fundamental_discriminants(200) + list(LANDAU_EXACT_PATH):
        target = analytics._landau_target(require_fundamental(d))
        assert twelve_digits(target) == twelve_digits(decimal_landau_target(d, gamma)), d
        assert target == pytest.approx(math.exp(-EULER_GAMMA) / l1_from_class_number(d), rel=1e-15)


def test_landau_target_next_to_a_rounding_boundary(monkeypatch):
    exact = analytics._exact_landau_target
    called = []
    monkeypatch.setattr(analytics, "_exact_landau_target", lambda disc: called.append(disc.value) or exact(disc))
    for d in LANDAU_EXACT_PATH + (-4, -23):
        analytics._landau_target(require_fundamental(d))
    assert called == list(LANDAU_EXACT_PATH)


def test_split_squarefree_density():
    # squarefree products of split primes: phi/norm = prod (1 - 1/p)^2
    cases = {-4: [5, 13, 5 * 13], -7: [2, 11, 2 * 11 * 23]}
    for d, values in cases.items():
        for n in values:
            ideal = principal_ideal(d, n)
            assert all(P.splitting == Splitting.SPLIT for P, _ in ideal.factors)
            expected = Fraction(1)
            for p, _ in factorize(n):
                expected *= Fraction(p - 1, p) ** 2
            assert Fraction(phi_K(ideal), ideal_norm(ideal)) == expected


def test_input_validation():
    with pytest.raises(ValueError):
        mertens_product(1)
    with pytest.raises(ValueError):
        char_euler_product(-12, 100)
    with pytest.raises(ValueError):
        phi_bound_scan(-4, 2)
    with pytest.raises(ValueError):
        phi_bound_scan(-4, 0)
    with pytest.raises(ValueError):
        phi_bound_scan(-12, 10)
    with pytest.raises(ValueError):
        phi_bound_scan(-4, 2**31)
    with pytest.raises(ValueError):
        landau_liminf_check(-4, 99)
