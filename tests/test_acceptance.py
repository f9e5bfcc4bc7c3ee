"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is checked at its stated tolerance and against its stated
runtime budget.  Expensive intermediates (the degree sweep to 2000, the
million-limit prime list) are shared through module-scoped fixtures.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tcm.analytics import char_euler_product, l1_from_class_number, mertens_product, phi_bound_scan
from tcm.cli import BoundRows
from tcm.feasibility import bound_ratio, bound_records, constant_over
from tcm.galois_image import cn_elements, kernel_size, max_stabilizer_order
from tcm.ideal_arith import brute_force_phi, phi_K_of_N
from tcm.primes import EULER_GAMMA
from tcm.quad_core import (
    Splitting,
    class_number,
    class_number_dirichlet,
    fundamental_discriminants,
    splitting_type,
)

from conftest import GRID_DISCS, expand_runs, oracle_unit_pairs, sieve_phi

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, description: str, elapsed: float, budget: float, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d} {verdict} ({elapsed:6.1f}s / budget {budget:.0f}s): {description}")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget}s"


@pytest.fixture(scope="module")
def records_to_2000():
    return bound_records(1, 2000)


def test_criterion_1_class_number_double_entry():
    start = time.time()
    discs = fundamental_discriminants(1000)
    ok = all(class_number(d) == class_number_dirichlet(d) for d in discs)
    _report(
        1,
        f"form count equals character sum for all {len(discs)} fundamental |D| <= 1000",
        time.time() - start,
        10,
        ok,
    )


def test_criterion_2_phi_oracle_equivalence():
    start = time.time()
    ok = True
    for d in fundamental_discriminants(40):
        for n in range(1, 61):
            if phi_K_of_N(d, n) != brute_force_phi(d, n):
                ok = False
    _report(
        2,
        "phi_K of (n) matches residue brute force, |D| <= 40 and n <= 60",
        time.time() - start,
        30,
        ok,
    )


def test_criterion_3_group_order_identity():
    start = time.time()
    ok = True
    for d in fundamental_discriminants(40):
        for n in range(2, 101):
            if len(cn_elements(d, n)) != len(oracle_unit_pairs(d, n)):
                ok = False
    _report(
        3,
        "unit-group order equals the gcd-per-pair residue count, |D| <= 40 and n <= 100",
        time.time() - start,
        60,
        ok,
    )


def test_criterion_4_kernel_sizes():
    start = time.time()
    checked = 0
    ok = True
    for d in GRID_DISCS:
        for p in (2, 3, 5):
            A = 1
            while True:
                B = 1
                if p ** (A + 1) > 200:
                    break
                while p ** (A + B) <= 200:
                    ok = ok and kernel_size(d, p, A, B) == p ** (2 * B)
                    checked += 1
                    B += 1
                A += 1
    _report(
        4,
        f"reduction kernels have size p^2B in all {checked} cases with p^(A+B) <= 200",
        time.time() - start,
        60,
        ok,
    )


def test_criterion_5_case_analysis():
    start = time.time()
    ok = True
    checked = 0
    for d in GRID_DISCS:
        for p in (2, 3, 5, 7, 11, 13):
            report = max_stabilizer_order(d, p, 0)
            kind = splitting_type(d, p)
            if kind == Splitting.SPLIT:
                ok = ok and (p - 1) % report.max_stabilizer_order == 0
            elif kind == Splitting.INERT:
                ok = ok and report.max_stabilizer_order == 1
            else:
                ok = ok and p % report.max_stabilizer_order == 0
            checked += 1
            A = 1
            while p ** (A + 1) <= 200:
                deeper = max_stabilizer_order(d, p, A)
                ok = ok and p % deeper.max_stabilizer_order == 0
                checked += 1
                A += 1
    _report(
        5,
        f"stabilizers divide p-1 / 1 / p by splitting type ({checked} scans)",
        time.time() - start,
        120,
        ok,
    )


def test_criterion_6_bound_engine(records_to_2000):
    start = time.time()
    # independent brute force over the stated rectangle, before trusting
    # the cutoff-based engine
    phi = sieve_phi(50 * 10**4)
    expected = {}
    for d in (1, 2):
        best = 0
        for a in range(1, 51):
            for b in range(1, 10**4 + 1):
                f = phi[a * b]
                if f * f <= 6 * b * d:
                    best = max(best, a * a * b)
        expected[d] = best
    ok = expected == {1: 60, 2: 210}
    ok = ok and bound_records(1, 1)[0].bound == 60 and bound_records(2, 2)[0].bound == 210
    bounds = [bound for bound, _, _ in expand_runs(records_to_2000)]
    ok = ok and len(bounds) == 2000 and all(bounds[i] <= bounds[i + 1] for i in range(len(bounds) - 1))
    _report(
        6,
        "B(1) = 60 and B(2) = 210 confirmed by brute force; B nondecreasing to 2000",
        time.time() - start,
        60,
        ok,
    )


def test_criterion_7_explicit_constant_golden(records_to_2000):
    start = time.time()
    golden = json.loads((GOLDEN / "explicit_constant.json").read_text())
    estimate = constant_over(records_to_2000)  # over the degrees d >= 3
    ok = math.isfinite(estimate.value)
    ok = ok and f"{estimate.value:.12g}" == f"{golden['value']:.12g}"
    ok = ok and estimate.argmax_d == golden["argmax_d"]
    # stabilization of the running sup, recorded only
    late = [run for run in records_to_2000 if run.d_hi >= 1000]
    new_argmax_late = any(bound_ratio(max(run.d_lo, 1000), run.bound) > estimate.value for run in late)
    print(f"  running sup ends at d={estimate.argmax_d}; new argmax in last half: {new_argmax_late}")
    _report(
        7,
        f"constant over [3, 2000] = {estimate.value:.12g} at d = {estimate.argmax_d}, matches golden",
        time.time() - start,
        120,
        ok,
    )


def test_criterion_8_mertens():
    start = time.time()
    est = mertens_product(10**6)
    scaled = est.value * math.exp(EULER_GAMMA) * math.log(10**6)
    _report(
        8,
        f"mertens product * e^gamma * ln(10^6) = {scaled:.6f} in [0.98, 1.02]",
        time.time() - start,
        10,
        0.98 <= scaled <= 1.02,
    )


def test_criterion_9_class_number_formula_consistency():
    start = time.time()
    discs = fundamental_discriminants(200)
    worst = 0.0
    for d in discs:
        l1 = l1_from_class_number(d)
        approx = 1.0 / char_euler_product(d, 10**6).value
        worst = max(worst, abs(approx - l1) / l1)
    _report(
        9,
        f"1/product agrees with class-number-formula L(1) within 10% "
        f"(worst {worst:.2%} over {len(discs)} fields)",
        time.time() - start,
        60,
        worst < 0.10,
    )


def test_criterion_10_phi_floor_golden():
    start = time.time()
    golden = json.loads((GOLDEN / "phi_scan_floor.json").read_text())
    floor = None
    argmin_disc = None
    for d in fundamental_discriminants(100):
        value = class_number(d) * phi_bound_scan(d, 10**4).min_value
        if floor is None or value < floor:
            floor, argmin_disc = value, d
    ok = floor > 0
    ok = ok and f"{floor:.12g}" == f"{golden['floor']:.12g}"
    ok = ok and argmin_disc == golden["argmin_disc"]
    _report(
        10,
        f"uniform floor min h*scan = {floor:.12g} at D = {argmin_disc}, matches golden",
        time.time() - start,
        300,
        ok,
    )


def test_criterion_11_cli_end_to_end():
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "tcm", "bound", "--d-min", "3", "--d-max", "100", "--format", "json"],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    envelope = json.loads(proc.stdout) if ok else {}
    ok = ok and json.loads(json.dumps(envelope)) == envelope
    expected_rows = list(BoundRows(bound_records(3, 100)))
    ok = ok and envelope.get("rows") == expected_rows
    _report(
        11,
        "CLI bound output round-trips and matches the library records exactly",
        time.time() - start,
        10,
        ok,
    )
