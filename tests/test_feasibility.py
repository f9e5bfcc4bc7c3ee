import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from tcm import feasibility, primes, quad_core
from tcm.feasibility import (
    BoundRun,
    bound_ratio,
    bound_records,
    chain_audit,
    constant_over,
    feasible_product_cutoff,
    product_cutoff,
    refined_table,
    relaxed_pairs,
    sweep_region,
)
from tcm.ideal_arith import phi_K_of_N, principal_ideal
from tcm.quad_core import class_number, fundamental_discriminants
from tcm.ray_class_bounds import degree_bounds

from conftest import (
    expand_runs,
    oracle_bound_records,
    oracle_sweep_region,
    relaxed_feasible,
    sieve_phi,
    sweep_activations,
    sweep_bound_records,
)


@pytest.fixture(scope="module")
def oracle_to_2000():
    return oracle_bound_records(2000)


@pytest.fixture(scope="module")
def sweep_to_100000():
    return sweep_bound_records(10**5)


def entry(d: int) -> tuple[int, int, int]:
    """(bound, a, b) of B(d), from a search at d alone."""
    (record,) = expand_runs(bound_records(d, d))
    return record


def brute_force_bound(d: int, a_max: int, b_max: int) -> tuple[int, int, int]:
    """Independent search: best (size, a, b) over a full rectangle."""
    phi = sieve_phi(a_max * b_max)
    best = (0, 0, 0)
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            f = phi[a * b]
            if f * f <= 6 * b * d:
                size = a * a * b
                if size > best[0] or (size == best[0] and a < best[1]):
                    best = (size, a, b)
    return best


@pytest.mark.parametrize(
    "d,a,b,expected",
    [(1, 1, 2, True), (1, 2, 1, True), (1, 1, 66, False), (1, 1, 60, True), (3, 1, 240, True)],
)
def test_relaxed_feasible(d, a, b, expected):
    assert relaxed_feasible(d, a, b) is expected


def test_torsion_bound_first_degrees_against_brute_force():
    # the rectangle fully contains the feasible region for d <= 2
    # (a <= 24 and ab <= the product cutoff, which is < 300 there)
    assert feasible_product_cutoff(2) < 300
    for d in (1, 2):
        assert entry(d) == brute_force_bound(d, 30, 2500)
    assert bound_records(1, 1) == [BoundRun(d_lo=1, d_hi=1, bound=60)]
    assert bound_records(2, 2) == [BoundRun(d_lo=2, d_hi=2, bound=210)]


def test_bound_at_least_six_everywhere():
    for d in (1, 2, 3, 10, 50):
        bound, _, _ = entry(d)
        assert bound >= 6
        assert bound >= entry(1)[0]


def test_ratio_defined_only_from_degree_three():
    # log log d <= 0 below 3: the rows print no ratio there, and the
    # constant skips those degrees
    assert math.log(math.log(2)) < 0 < math.log(math.log(3))
    with pytest.raises(ValueError):
        constant_over(bound_records(1, 2))
    assert bound_ratio(3, 240) == 240 / (3 * math.log(math.log(3)))
    assert constant_over(bound_records(1, 3)) == (bound_ratio(3, 240), 3)


def test_columns_types_and_exact_ratios():
    # the runs cover the range in order, one run per distinct value of B,
    # as ints; each ratio is the float B(d) / (d * math.log(math.log(d))),
    # as no sampled degree lies within its error bound of a rounding boundary
    runs = bound_records(1, 2000)
    assert [run.d_lo for run in runs[1:]] == [run.d_hi + 1 for run in runs[:-1]]
    assert (runs[0].d_lo, runs[-1].d_hi) == (1, 2000)
    assert all(run.d_lo <= run.d_hi for run in runs)
    bounds = [run.bound for run in runs]
    assert bounds == sorted(set(bounds))
    assert {type(x) for run in runs for x in run} == {int}
    for d in range(3, 2001, 7):
        bound, _, _ = entry(d)
        assert bound_ratio(d, bound) == bound / (d * math.log(math.log(d))), d


@pytest.mark.parametrize("d", [49_533, 63_197, 79_920, 99_950, 122_669, 182_516])
def test_ratio_prints_the_digits_of_the_exact_ratio(d):
    # the float quotient rounds the wrong way at these degrees: at 49,533 it
    # printed 82.2609188221 for the exact 82.26091882204999...
    (run,) = bound_records(d, d)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = float(f"{run.bound / (d * Decimal(d).ln().ln()):.12g}")
    assert float(f"{run.bound / (d * math.log(math.log(d))):.12g}") != exact
    assert float(f"{bound_ratio(d, run.bound):.12g}") == exact


def test_bound_records_monotone_and_consistent_with_single_degree():
    records = expand_runs(bound_records(1, 200))
    assert len(records) == 200
    bounds = [bound for bound, _, _ in records]
    for i in range(len(bounds) - 1):
        assert bounds[i] <= bounds[i + 1]
    for d in (1, 2, 3, 17, 100, 200):
        assert entry(d) == records[d - 1]
    # a range that starts inside a run (B = 2310 on [17, 20]) is cut at d_min
    assert expand_runs(bound_records(18, 200)) == records[17:]


def test_maximizer_is_feasible_and_beats_neighbors():
    for d in (1, 5, 40):
        bound, a, b = entry(d)
        assert relaxed_feasible(d, a, b)
        assert bound == a * a * b
        # no sampled feasible pair does better
        for aa in range(1, 13):
            for bb in range(1, 300):
                if relaxed_feasible(d, aa, bb):
                    assert aa * aa * bb <= bound


def test_product_cutoff_excludes_everything_beyond():
    for d in (1, 2, 5):
        cutoff = feasible_product_cutoff(d)
        phi = sieve_phi(cutoff + 500)
        for n in range(cutoff + 1, cutoff + 501):
            assert phi[n] ** 2 > 6 * n * d, (d, n)


def test_per_a_cutoff_excludes_everything_beyond():
    # M(c) with c = 6d/a: no n in (M(c), M(c) + 500] has a phi(n)^2 <= 6 d n
    grid = [(d, a) for d in (1, 2, 5, 60, 500) for a in (1, 2, 3, 7, 13, 40, 200, 547)]
    cutoffs = {(d, a): product_cutoff(6 * d / a) for d, a in grid}
    phi = sieve_phi(max(cutoffs.values()) + 500)
    for (d, a), cutoff in cutoffs.items():
        assert cutoff >= 63
        for n in range(cutoff + 1, cutoff + 501):
            assert a * phi[n] ** 2 > 6 * d * n, (d, a, n)


def test_sweep_region_cutoffs():
    region = sweep_region(2000)
    assert region.n_max == feasible_product_cutoff(2000) == 397_468
    assert region.a_max == 547
    assert product_cutoff(6 * 2000 / 548) < 548  # the a-range ends where M(6d/a) < a
    assert product_cutoff(6 * 2000 / 547) >= 547
    assert region.pairs_scanned == 638_795  # against 4,226,155 over a <= 12d, n <= n_max
    for d in (1, 2, 5):
        assert sweep_region(d).a_max <= 12 * d


def test_sweep_region_counts_at_the_cap():
    # the goldens pin the meta up to d_max = 100; these pin the one-pass
    # sum of the per-a cutoffs up to the CLI's cap
    assert sweep_region(10**5) == (22_561_035, 4_020, 36_485_902)
    assert sweep_region(10**6) == (237_662_443, 13_148, 385_953_084)


def test_sweep_region_equals_the_per_a_oracle():
    # one pass of the cutoffs, each a's first failing power of two found
    # from the last a's, against a fresh doubling from 64 per a: at every
    # degree to 3,000, at a seeded sample up to 10^7, and at the CLI's cap
    degrees = [*range(1, 3001), *random.Random(32).sample(range(3001, 10**7 + 1), 8), 10**6]
    for d in degrees:
        assert sweep_region(d) == oracle_sweep_region(d), d


def test_bound_records_match_oracle_to_2000(oracle_to_2000):
    assert expand_runs(bound_records(1, 2000)) == oracle_to_2000


def test_single_degree_regions_match_oracle(oracle_to_2000):
    for d in (1, 2, 3, 7, 12, 60, 547, 1999, 2000):
        assert entry(d) == oracle_to_2000[d - 1], d


def test_search_matches_the_sweep_to_100000(sweep_to_100000):
    # the numpy sweep over the proven region, record for record
    assert expand_runs(bound_records(1, 10**5)) == sweep_to_100000


def test_search_matches_the_sweep_at_every_degree_to_5000(sweep_to_100000):
    # one search per degree, each its own staircase of one step
    for d in range(1, 5001):
        assert entry(d) == sweep_to_100000[d - 1], d


def test_every_sweep_record_has_a_equal_to_one(sweep_to_100000):
    # Lemma 1: the smallest-a shape of every size m is (1, m)
    assert all(a == 1 and b == bound for bound, a, b in sweep_to_100000)


def test_staircase_makes_one_search_per_value(monkeypatch):
    searched = []
    largest_size = feasibility._largest_size

    def counting(d):
        searched.append(d)
        return largest_size(d)

    monkeypatch.setattr(feasibility, "_largest_size", counting)
    runs = bound_records(1, 10**6)
    assert len(runs) == len(searched) == 262
    assert searched == [run.d_hi for run in reversed(runs)]


def test_search_pins_beyond_the_sweep():
    # the primorials 2 * 3 * ... * 23 and 10 times it, by the search alone
    assert bound_records(10**6, 10**6) == [BoundRun(d_lo=10**6, d_hi=10**6, bound=223_092_870)]
    assert entry(10**7) == (2_230_928_700, 1, 2_230_928_700)


def test_pruned_search_equals_the_unpruned_walk():
    # with nothing known (best 0) the walk visits every admissible prime set,
    # so the largest size it lists is B(d)
    for d in (1, 2, 3, 10, 100, 1000):
        sets = list(feasibility._prime_sets(6 * d, lambda: 0))
        largest = max(rad * max(feasibility._smooth(top // rad, S)) for S, rad, top in sets)
        assert largest == entry(d)[0], d
        for S, rad, top in sets:
            assert rad <= top == 6 * d * math.prod(p * p for p in S) // math.prod((p - 1) ** 2 for p in S)


def test_relaxed_pairs_match_brute_force_over_old_region():
    # the region before the per-a cutoffs: a <= 12d, n <= feasible_product_cutoff(d)
    top = 60
    n_top = feasible_product_cutoff(top)
    phi = sieve_phi(n_top)
    candidates = [
        (a, n, phi[n] ** 2 * a)
        for a in range(1, 12 * top + 1)
        for n in range(a, n_top + 1, a)
        if phi[n] ** 2 * a <= 6 * n * top
    ]
    for d in range(1, top + 1):
        n_max = feasible_product_cutoff(d)
        expected = sorted(
            (a, n // a) for a, n, lhs in candidates if a <= 12 * d and n <= n_max and lhs <= 6 * n * d
        )
        assert relaxed_pairs(d) == expected, d


def brute_relaxed_pairs(d: int) -> list[tuple[int, int]]:
    """Every (a, b) with a <= 12 d, ab <= n_max(d) and phi(ab)^2 <= 6 b d, sorted."""
    n_max = feasible_product_cutoff(d)
    phi = np.array(sieve_phi(n_max), dtype=np.int64)
    pairs = []
    for a in range(1, 12 * d + 1):
        n = np.arange(a, n_max + 1, a)
        pairs += [(a, m // a) for m in n[phi[n] ** 2 * a <= 6 * n * d].tolist()]
    return pairs


def test_relaxed_pairs_sorted_across_blocks():
    # sorted as the brute force lists them, a then b, at degrees whose
    # sizes span many prime sets
    for d in (7, 33, 60, 400):
        assert relaxed_pairs(d) == brute_relaxed_pairs(d), d


def test_relaxed_pairs_match_the_sweep_route():
    # the pairs the numpy sweep over the proven region finds at d
    for d in range(1, 41):
        swept = sorted((a, n // a) for a, ns, _ in sweep_activations(d) for n in ns.tolist())
        assert relaxed_pairs(d) == swept, d


def test_a_cutoff_boundary_sampling():
    phi = sieve_phi(15000)
    for d in (1, 2, 5, 10):
        for b in (1, 7, 100):
            a = 12 * d + 1
            assert not relaxed_feasible(d, a, b)
            n = a * b
            assert 2 * phi[n] ** 2 >= n  # phi(n)^2 >= n/2, so a > 12d is infeasible


def test_explicit_constant_scan():
    single = constant_over(bound_records(3, 3))
    assert single.value == pytest.approx(240 / (3 * math.log(math.log(3))))
    assert single.argmax_d == 3

    small = constant_over(bound_records(3, 50))
    wide = constant_over(bound_records(3, 100))
    assert small.value <= wide.value
    assert wide.value > 0 and math.isfinite(wide.value)


def test_constant_over_requires_ratios():
    with pytest.raises(ValueError):
        constant_over(bound_records(1, 2))


def test_constant_over_takes_the_first_maximum(monkeypatch, sweep_to_100000):
    # the argmax over every degree of [3, 10^5], from the sweep's records
    ratios = [bound_ratio(d, bound) for d, (bound, _, _) in enumerate(sweep_to_100000[2:], start=3)]
    value = max(ratios)
    assert constant_over(bound_records(1, 10**5)) == (value, ratios.index(value) + 3)
    # degrees 1 and 2 are skipped, each run is read at its first degree, and
    # of the tied maxima the smallest d wins
    table = {3: 2.0, 4: 5.0, 5: 9.0, 6: 5.0}
    monkeypatch.setattr(feasibility, "bound_ratio", lambda d, bound: table[d])
    runs = [BoundRun(1, 2, 60), BoundRun(3, 3, 240), BoundRun(4, 5, 420), BoundRun(6, 6, 630)]
    assert constant_over(runs) == (5.0, 4)


def test_relaxed_pairs_cover_examples():
    pairs = relaxed_pairs(1)
    assert (1, 60) in pairs
    assert (2, 1) in pairs
    assert (1, 66) not in pairs
    assert all(relaxed_feasible(1, a, b) for a, b in pairs)


def test_refined_table_examples():
    rows = {(r.disc.value, r.a, r.b): r for r in refined_table(1, 4)}
    assert rows[(-4, 2, 1)].lhs == Fraction(2, 6)
    assert rows[(-4, 2, 1)].feasible
    assert rows[(-4, 1, 1)].lhs == Fraction(1, 6)
    assert rows[(-4, 1, 1)].feasible

    rows23 = {(r.disc.value, r.a, r.b): r for r in refined_table(1, 23)}
    row = rows23[(-23, 1, 5)]
    assert row.lhs == Fraction(3 * phi_K_of_N(-23, 5), 30)
    assert row.feasible == (row.lhs <= 1)
    assert not row.feasible  # 5 is inert for -23, so the shape is excluded


def test_refined_table_sorted_by_size_descending():
    rows = refined_table(1, 8)
    sizes = [r.a * r.a * r.b for r in rows]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("d,D_cap", [(1, 8), (3, 40), (6, 100)])
def test_refined_table_matches_one_phi_call_per_row(monkeypatch, d, D_cap):
    # each n = ab factored once per table and chi read once per field, with
    # the rows and their order of one phi_K_of_N call per (field, pair)
    pairs = relaxed_pairs(d)
    # some pairs share a size a^2 b ((1, 4) and (2, 1) at d = 1), so the rows
    # of one size are grouped across fields
    assert len({a * a * b for a, b in pairs}) < len(pairs)
    expected = []
    for value in fundamental_discriminants(D_cap):
        h = class_number(value)
        for a, b in pairs:
            lhs = Fraction(h * phi_K_of_N(value, a * b), 6 * b)
            expected.append((value, a, b, lhs, lhs <= d))
    expected.sort(key=lambda r: (-r[1] * r[1] * r[2], -r[0], r[1], r[2]))
    # factorize is feasibility's own import; kronecker is imported from
    # quad_core when refined_table runs
    owners = {"factorize": feasibility, "kronecker": quad_core}
    calls = dict.fromkeys(owners, 0)

    def counting(name):
        fn = getattr(owners[name], name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counting(name))
    rows = refined_table(d, D_cap)
    assert [(r.disc.value, r.a, r.b, r.lhs, r.feasible) for r in rows] == expected
    ns = {a * b for a, b in pairs}
    ps = {p for n in ns for p, _ in primes.factorize(n)}
    assert calls == {"factorize": len(ns), "kronecker": len(fundamental_discriminants(D_cap)) * len(ps)}


def test_refined_feasibility_implies_relaxed():
    # exact feasibility of any shape for any field implies the relaxed test
    for d in (1, 2, 3):
        for disc in (-3, -4, -7, -15, -23):
            h = class_number(disc)
            for a in range(1, 13):
                for b in range(1, 13):
                    lhs = Fraction(h * phi_K_of_N(disc, a * b), 6 * b)
                    if lhs <= d:
                        assert relaxed_feasible(d, a, b), (d, disc, a, b)


def test_chain_audit_examples():
    audit = chain_audit(3, -4, 5, 1)
    assert all(step.holds for step in audit.steps)
    assert audit.steps[0].lhs == 6
    assert audit.steps[0].rhs == Fraction(16, 3)

    failing = chain_audit(1, -4, 5, 1)
    assert not failing.steps[0].holds  # so steps[0] is the first step that fails
    assert failing.steps[0].label == audit.steps[0].label

    trivial = chain_audit(1, -4, 1, 1)
    assert all(step.holds for step in trivial.steps)

    for a, b in [(0, 1), (1, 0)]:
        with pytest.raises(ValueError):
            chain_audit(1, -4, a, b)


def test_chain_audit_final_step_matches_refined_lhs():
    for d, disc, a, b in [(1, -4, 2, 1), (2, -7, 1, 6), (3, -3, 2, 2)]:
        audit = chain_audit(d, disc, a, b)
        final = audit.steps[-1]
        h = class_number(disc)
        assert final.rhs == Fraction(h * phi_K_of_N(disc, a * b), 6 * b)


def test_chain_audit_matches_degree_bounds_route():
    # each step's right side is twice the uniform lower_weak of degree_bounds
    d = 6
    for row in refined_table(d, 40):
        disc, a, b = row.disc, row.a, row.b
        lower_a = 2 * degree_bounds(disc, principal_ideal(disc, a)).lower_weak
        lower_ab = 2 * degree_bounds(disc, principal_ideal(disc, a * b)).lower_weak
        expected = [
            (2 * d, lower_a),
            (2 * b * d, lower_ab),
            (d, lower_ab / (2 * b)),
        ]
        steps = chain_audit(d, disc, a, b).steps
        assert [(s.lhs, s.rhs) for s in steps] == expected, (disc.value, a, b)
        assert [type(s.lhs) for s in steps] == [int, int, int]
        assert [s.holds for s in steps] == [lhs >= rhs for lhs, rhs in expected]


def test_chain_steps_compare_in_integers_exactly():
    # every refined row at d = 6: holds is the Fraction comparison, and the
    # right sides are the Fractions h phi_K(aO)/3, h phi_K(abO)/3 and
    # h phi_K(abO)/(6b)
    d = 6
    for row in refined_table(d, 100):
        h = class_number(row.disc)
        phi_a, phi_ab = phi_K_of_N(row.disc, row.a), phi_K_of_N(row.disc, row.a * row.b)
        rhs = [Fraction(h * phi_a, 3), Fraction(h * phi_ab, 3), Fraction(h * phi_ab, 6 * row.b)]
        steps = chain_audit(d, row.disc, row.a, row.b).steps
        assert [s.rhs for s in steps] == rhs, (row.disc.value, row.a, row.b)
        assert [s.holds for s in steps] == [s.lhs >= Fraction(s.num, s.den) for s in steps]
        assert row.lhs == rhs[2] and row.feasible == (row.lhs <= d)


def test_chain_audit_factors_ab_once_and_reads_chi_once_per_prime(monkeypatch):
    # each audit of a refined row at d = 6: one factorize, of ab, and one
    # _chi_at_prime per prime of ab, and no kronecker
    # (test_chain_steps_compare_in_integers_exactly checks the steps against
    # phi_K_of_N on the same rows)
    rows = refined_table(6, 100)
    owners = {"factorize": feasibility, "_chi_at_prime": quad_core, "kronecker": quad_core}
    calls = dict.fromkeys(owners, 0)

    def counting(name):
        fn = getattr(owners[name], name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counting(name))
    for row in rows:
        chain_audit(6, row.disc, row.a, row.b)
    primes_of_ab = sum(len(primes.factorize(row.a * row.b)) for row in rows)
    assert calls == {"factorize": len(rows), "_chi_at_prime": primes_of_ab, "kronecker": 0}


def test_chain_audit_computes_class_number_once(monkeypatch):
    # chain_audit imports class_number from quad_core when it runs
    import tcm.ray_class_bounds

    calls = []

    def counting(d):
        calls.append(d)
        return class_number(d)

    monkeypatch.setattr(quad_core, "class_number", counting)
    monkeypatch.setattr(tcm.ray_class_bounds, "class_number", counting)
    cases = [(1, -4, 2, 1), (2, -7, 1, 6), (3, -3, 2, 2), (6, -23, 3, 4)]
    for d, disc, a, b in cases:
        chain_audit(d, disc, a, b)
    assert len(calls) == len(cases)


def test_forms_are_counted_once_per_field():
    # class_number is memoized on the discriminant value: auditing every
    # refined row and every degree sandwich counts each field's forms once
    # (every field misses the emptied memo once, so 31 misses are the 31
    # fields, once each)
    quad_core._form_count.cache_clear()
    for row in refined_table(6, 100):
        chain_audit(6, row.disc, row.a, row.b)
    fields = fundamental_discriminants(100)
    for D in fields:
        for n in range(1, 101):
            degree_bounds(D, principal_ideal(D, n))
    info = quad_core._form_count.cache_info()
    assert len(fields) == 31
    assert info.misses == info.currsize == len(fields)
    assert info.maxsize is not None
