import math
from math import gcd

import pytest

from tcm.analytics import l1_from_class_number
from tcm.quad_core import (
    CHI_TABLE_BYTES_PER_RESIDUE,
    _chi_at_prime,
    _form_count,
    as_discriminant,
    chi_table,
    class_number,
    class_number_dirichlet,
    fundamental_discriminants,
    is_fundamental,
    kronecker,
    splitting_type,
    unit_count,
    Splitting,
)

from conftest import (
    CHARACTER_TABLE_BYTES_PER_RESIDUE,
    character_table,
    full_period_class_number,
    oracle_reduced_forms,
    order_discriminants,
    reduced_triples,
    traced_peak,
    trial_factor,
)


# ----------------------------------------------------------------------
# independent character oracle: quadratic-residue scan at odd primes, the
# value at 2 recovered through periodicity, multiplicative extension
# ----------------------------------------------------------------------


def _legendre_scan(d: int, p: int) -> int:
    if d % p == 0:
        return 0
    return 1 if any((x * x - d) % p == 0 for x in range(1, p)) else -1


def _chi_at_two(d: int) -> int:
    if d % 2 == 0:
        return 0
    # 2 + |d| is odd and congruent to 2 modulo the period |d|
    m = 2 + abs(d)
    return math.prod(_legendre_scan(d, q) ** e for q, e in trial_factor(m))


def _chi_oracle(d: int, n: int) -> int:
    value = 1
    for q, e in trial_factor(n):
        factor = _chi_at_two(d) if q == 2 else _legendre_scan(d, q)
        value *= factor**e
    return value


# --------------------------------------------------------------- is_fundamental


@pytest.mark.parametrize(
    "value,expected",
    [(-4, True), (-12, False), (-23, True), (-3, True), (-8, True), (-27, False), (-75, False)],
)
def test_is_fundamental(value, expected):
    assert is_fundamental(value) is expected


@pytest.mark.parametrize("value", [0, 4, -14, -5, -1, -2])
def test_is_fundamental_rejects_invalid_discriminants(value):
    with pytest.raises(ValueError):
        is_fundamental(value)


def test_fundamental_discriminant_list():
    assert fundamental_discriminants(24) == [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
    assert -12 in order_discriminants(24)
    assert -12 not in fundamental_discriminants(24)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 8, 24, 20000])
def test_fundamental_discriminants_sieve_matches_is_fundamental(bound):
    # the squarefree sieve lists exactly the values is_fundamental accepts
    expected = [v for v in range(-3, -bound - 1, -1) if v % 4 in (0, 1) and is_fundamental(v)]
    assert fundamental_discriminants(bound) == expected


# ------------------------------------------------------------------- kronecker


@pytest.mark.parametrize("d,n,expected", [(-4, 1, 1), (-4, 5, 1), (-3, 2, -1)])
def test_kronecker_examples(d, n, expected):
    assert kronecker(d, n) == expected


def test_kronecker_matches_residue_oracle():
    for d in fundamental_discriminants(60):
        for n in range(1, 201):
            assert kronecker(d, n) == _chi_oracle(d, n), (d, n)


def test_chi_at_prime_matches_kronecker():
    # every discriminant, fundamental or not, down to -400, at the primes
    # below 200 (each residue class mod 8 at 2, and p | d), and two primes
    # past 10^12 at a large field
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    for d in order_discriminants(400):
        for p in primes:
            assert _chi_at_prime(d, p) == kronecker(d, p), (d, p)
    for p in (10**12 + 39, 10**12 + 61):
        assert _chi_at_prime(-100000000003, p) == kronecker(-100000000003, p)


@pytest.mark.parametrize("d", [-4, -3, -23, -40])
def test_kronecker_completely_multiplicative(d):
    values = [kronecker(d, n) for n in range(1, 201)]
    for m in range(1, 201):
        for n in range(1, 201):
            if m * n <= 200:
                assert values[m * n - 1] == values[m - 1] * values[n - 1]


@pytest.mark.parametrize("d", [-4, -7, -15, -20])
def test_kronecker_zero_iff_common_factor(d):
    for n in range(1, 501):
        assert (kronecker(d, n) == 0) == (gcd(n, d) > 1)


def test_kronecker_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        kronecker(-4, 0)


# --------------------------------------------------------------- reduced forms


def reduced_forms(d: int) -> set[tuple[int, int, int]]:
    """The triples (a, b, c) with b >= 0 that class_number counts, each
    expanded to (a, +-b, c) when the form with -b is reduced too."""
    forms = set()
    for a, b, c in reduced_triples(d):
        forms.add((a, b, c))
        if 0 < b < a < c:
            forms.add((a, -b, c))
    return forms


def test_reduced_forms_examples():
    assert reduced_forms(-4) == {(1, 0, 1)}
    assert reduced_forms(-3) == {(1, 1, 1)}
    assert reduced_forms(-23) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}


def test_reduced_forms_are_reduced_with_right_discriminant():
    for d in order_discriminants(300):
        for a, b, c in reduced_forms(d):
            assert b * b - 4 * a * c == d
            assert 0 < a and abs(b) <= a <= c
            assert b >= 0 or abs(b) < a < c


def test_reduced_forms_match_a_first_scan():
    # from an empty memo: the first call counts the forms, the second
    # (keyed on the value, as an int or a Discriminant) reads the memo
    _form_count.cache_clear()
    for d in order_discriminants(3000):
        expected = oracle_reduced_forms(d)
        assert reduced_forms(d) == expected, d
        assert class_number(d) == len(expected) == class_number(as_discriminant(d)), d
    info = _form_count.cache_info()
    assert info.hits == info.misses == len(order_discriminants(3000))
    assert info.maxsize is not None and info.currsize == info.maxsize


def test_character_table_matches_kronecker_per_residue():
    for d in fundamental_discriminants(2000):
        table = character_table(d)
        assert table.tolist() == [0] + [kronecker(d, r) for r in range(1, -d)], d


def test_chi_table_matches_genus_character_oracle():
    # over one period, and over a longer and a shorter table
    for d in fundamental_discriminants(2000):
        oracle = character_table(d).tolist()
        for size in (-d, 3 * -d + 1, max(-d // 3, 2)):
            table = chi_table(d, size)
            assert [(0, 1, -1)[c] for c in table] == [oracle[n % -d] for n in range(size)], (d, size)


def test_chi_table_bytes_bound_measured_peak():
    # a prime |D|, 8 * odd and an odd composite, over one period; and a
    # period far above the table
    for d, size in ((-100003, 100003), (-100024, 100024), (-99995, 99995), (-100000000003, 10**5 + 1)):
        assert traced_peak(chi_table, d, size) <= CHI_TABLE_BYTES_PER_RESIDUE * size, d


def test_character_table_bytes_bound_measured_peak():
    # a prime |D| (one Legendre table as long as chi), and 8 * odd and odd
    # composite ones (several shorter tables)
    for d in (-1000003, -1000024, -999995):
        assert traced_peak(character_table, d) <= CHARACTER_TABLE_BYTES_PER_RESIDUE * -d, d


# --------------------------------------------------------------- class numbers


def test_class_number_double_entry_small_range():
    for d in fundamental_discriminants(300):
        assert class_number(d) == class_number_dirichlet(d), d


def test_class_number_double_entry_to_ten_thousand():
    for d in fundamental_discriminants(10**4):
        assert class_number(d) == class_number_dirichlet(d), d


def test_half_range_sum_matches_full_period_sum():
    for d in fundamental_discriminants(2000):
        assert class_number_dirichlet(d) == full_period_class_number(d), d


@pytest.mark.parametrize("d", [-3, -4, -7, -8, -11, -19, -43, -67, -163])
def test_class_number_one_fields(d):
    assert class_number(d) == 1


def test_class_number_accepts_order_discriminants():
    assert class_number(-12) == 1
    assert class_number(-16) == 1
    assert class_number(-27) == 1
    with pytest.raises(ValueError):
        class_number_dirichlet(-12)


# ------------------------------------------------------- units and splitting


@pytest.mark.parametrize("d,expected", [(-3, 6), (-4, 4), (-7, 2), (-23, 2), (-163, 2)])
def test_unit_count(d, expected):
    assert unit_count(d) == expected


@pytest.mark.parametrize("d", [-3, -4, -7, -11, -20])
def test_unit_count_matches_norm_form_solution_count(d):
    quad = (d * d - d) // 4
    solutions = sum(
        1
        for x in range(-60, 61)
        for y in range(-60, 61)
        if x * x + d * x * y + quad * y * y == 1
    )
    assert solutions == unit_count(d)


@pytest.mark.parametrize(
    "d,p,expected",
    [
        (-4, 2, Splitting.RAMIFIED),
        (-4, 5, Splitting.SPLIT),
        (-4, 3, Splitting.INERT),
        (-23, 23, Splitting.RAMIFIED),
    ],
    ids=lambda v: v.value if isinstance(v, Splitting) else None,
)
def test_splitting_type(d, p, expected):
    assert splitting_type(d, p) == expected


def test_splitting_type_rejects_composite():
    with pytest.raises(ValueError, match="^6 is not prime$"):
        splitting_type(-4, 6)


@pytest.mark.parametrize("d", [-3, -4, -7, -15])
def test_splitting_of_chi_is_the_three_way_rule(d):
    def three_way(chi):
        if chi == 1:
            return Splitting.SPLIT
        if chi == -1:
            return Splitting.INERT
        return Splitting.RAMIFIED

    for p in (q for q in range(2, 1001) if trial_factor(q) == [(q, 1)]):
        chi = kronecker(d, p)
        assert Splitting.of(chi) is three_way(chi) is splitting_type(d, p), (d, p)


# ------------------------------------------------------------ field constants


def test_field_constants_identity():
    for d in fundamental_discriminants(100):
        l1, h, w = l1_from_class_number(d), class_number(d), unit_count(d)
        assert l1 > 0
        assert l1 == pytest.approx(2 * math.pi * h / (w * math.sqrt(-d)), rel=1e-15)
        assert w == (6 if d == -3 else 4 if d == -4 else 2)


def test_l1_agrees_with_truncated_euler_product():
    # truncated product inverse vs the closed form, far inside the 5% budget
    from tcm.analytics import char_euler_product

    for d in fundamental_discriminants(1000):
        l1 = l1_from_class_number(d)
        approx = 1.0 / char_euler_product(d, 10**6).value
        assert abs(approx - l1) / l1 < 0.05, d


def test_as_discriminant_carries_fundamentality():
    assert as_discriminant(-4).is_fundamental
    assert not as_discriminant(-12).is_fundamental


def test_discriminant_rejects_wrong_fundamentality_flag():
    from tcm.quad_core import Discriminant

    # the flag is derived from the value, so no caller can pass a wrong one
    assert Discriminant(-12).is_fundamental is False
    assert Discriminant(-4).is_fundamental is True
    with pytest.raises(TypeError):
        Discriminant(-12, True)
    with pytest.raises(ValueError):
        Discriminant(-14)


def test_as_discriminant_factors_once(monkeypatch):
    import tcm.quad_core as quad_core

    calls = []
    real = quad_core.squarefree
    monkeypatch.setattr(quad_core, "squarefree", lambda n: calls.append(n) or real(n))
    quad_core.is_fundamental.cache_clear()  # an earlier test may have validated -4
    as_discriminant(-4)
    assert calls == [1]
    as_discriminant(-4)  # the fundamentality test is memoized on the value
    assert calls == [1]


def test_class_number_of_an_int_checks_its_shape_only(monkeypatch):
    # the form count needs no fundamentality test, so an int d factors
    # nothing; a value that is no discriminant still raises ValueError
    import tcm.quad_core as quad_core

    values = (-4, -12, -9748, -(10**6) - 3)
    expected = [1, 1, class_number_dirichlet(-9748), class_number_dirichlet(-(10**6) - 3)]
    calls = []
    monkeypatch.setattr(quad_core, "squarefree", lambda n: calls.append(n) or True)
    quad_core.is_fundamental.cache_clear()
    _form_count.cache_clear()
    assert [class_number(d) for d in values] == expected
    assert calls == []
    for bad in (0, 5, -1, -6, -10**6 - 2):
        with pytest.raises(ValueError):
            class_number(bad)
    assert calls == []

