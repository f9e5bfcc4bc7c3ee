"""The benchmark's three workloads: op lists drawn from a seed, and their checks.

Each workload loads one group of tcm's layers and leaves the others
almost idle (see README.md for the rationale):

- bound: the degree sweep behind `tcm bound` (primes, feasibility, cli);
- scan:  ideal enumeration and the analytic products (ideal_arith, analytics);
- audit: class numbers, unit-group scans and the chain audit (quad_core,
  galois_image, ray_class_bounds, feasibility.refined_table), by direct ops.

Every op carries a check that raises CheckError when the output is wrong.
Expected values come from `oracles` or from the golden files in
tests/golden, which are read and never written.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

# the discriminants of the exhaustive unit-group grids (acceptance criteria 3-5)
GRID_DISCS = (-3, -4, -7, -8, -11, -15, -20)


class CheckError(Exception):
    """An op's output disagrees with its expected value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def round12(x: float) -> float:
    return float(f"{x:.12g}")


@dataclass
class Op:
    """One unit of work: a tcm CLI command or a direct op, and its check.

    kind is "cli" (args are tcm CLI arguments) or "op" (args are a direct
    op name and its keyword parameters, see child.py).  inner names a
    standalone call of the layer nested inside this op, made only in
    traced runs.  counts are per-layer counts the parent knows from its
    oracles.
    """

    name: str
    kind: str
    args: list
    check: Callable[[str], None]
    inner: tuple[str, dict] | None = None
    counts: dict[str, int] = field(default_factory=dict)


def _golden(root: Path, name: str) -> dict:
    return json.loads((root / "tests" / "golden" / name).read_text())


# ------------------------------------------------------------------ bound


class Refused(Exception):
    """An op would need more memory than the pre-flight allows."""


# peak RSS of tcm's totient sieve (a Python list of ints) per entry, measured
# at n = 2.08e6; its tracemalloc peak is about 40 B per entry
SIEVE_BYTES_PER_ENTRY = 52


def memory_limit_mb() -> float:
    """Half of the machine's physical memory (there is no swap to fall back on)."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 / 2**20


def preflight(d_max: int) -> None:
    """Refuse a bound op whose totient sieve would come near the memory limit."""
    need = oracles.product_cutoff(d_max) * SIEVE_BYTES_PER_ENTRY / 2**20
    if need > memory_limit_mb():
        raise Refused(f"tcm bound --d-max {d_max} needs about {need:.0f} MB, limit {memory_limit_mb():.0f} MB")


def check_bound_record(sweep: oracles.DegreeSweep, d: int, a: int, b: int, size: int) -> None:
    expect((size, a, b) == sweep.record(d), f"B({d}) = {size} with (a, b) = ({a}, {b}); oracle {sweep.record(d)}")
    f = oracles.totient(a * b)
    expect(f * f <= 6 * b * d and size == a * a * b, f"row d={d} fails phi(ab)^2 <= 6bd or bound = a^2 b")


def check_bound_json(out: str, sweep, lo: int, hi: int, verify: list[int], golden: dict | None) -> None:
    envelope = json.loads(out)
    rows = envelope["rows"]
    expect([r["d"] for r in rows] == list(range(lo, hi + 1)), "rows do not cover [d_min, d_max]")
    best = None
    for r in rows:
        size, a, b = sweep.record(r["d"])
        expect((r["bound"], r["a"], r["b"]) == (size, a, b), f"row d={r['d']} disagrees with the sweep oracle")
        expect(r["ratio"] == round12(oracles.ratio(r["d"], size)), f"ratio of row d={r['d']}")
        if best is None or oracles.ratio(r["d"], size) > best[0]:
            best = (oracles.ratio(r["d"], size), r["d"])
    for d in verify:  # independent totient on seed-chosen rows
        r = rows[d - lo]
        check_bound_record(sweep, d, r["a"], r["b"], r["bound"])
    constant = envelope["meta"]["constant"]
    expect(constant == {"value": round12(best[0]), "argmax_d": best[1]}, f"meta.constant {constant}")
    if golden is not None:
        expect(
            f"{constant['value']:.12g}" == f"{golden['value']:.12g}" and constant["argmax_d"] == golden["argmax_d"],
            f"meta.constant {constant} differs from tests/golden/explicit_constant.json",
        )


def check_bound_table(out: str, sweep, d: int) -> None:
    header, rule, row = out.strip().splitlines()
    expect(header.split() == ["d", "a", "b", "bound", "ratio"], f"table header {header!r}")
    d_out, a, b, size, ratio = row.split()
    expect(int(d_out) == d, f"table row is for d={d_out}, asked {d}")
    check_bound_record(sweep, d, int(a), int(b), int(size))
    expect(float(ratio) == round12(oracles.ratio(d, int(size))), f"ratio of d={d}")


def check_bound_csv(out: str, expected: int) -> None:
    header, row = out.strip().splitlines()
    expect(header == "d,a,b,bound,ratio", f"csv header {header!r}")
    d, a, b, size, ratio = row.split(",")
    expect((d, ratio) == ("1", ""), f"csv row {row!r}")
    expect(int(size) == expected == int(a) ** 2 * int(b), f"B(1) = {size}, expected {expected}")


def bound(rng: random.Random, root: Path, small: bool = False) -> list[Op]:
    hi = 300 if small else 2000
    single = rng.randint(290, 310) if small else rng.randint(2990, 3010)
    preflight(single)
    sweep = oracles.DegreeSweep(single)
    golden = _golden(root, "explicit_constant.json")
    use_golden = (golden["d_min"], golden["d_max"]) == (3, hi)
    verify = sorted(rng.sample(range(3, hi + 1), 16))
    return [
        Op(
            "bound-range",
            "cli",
            ["bound", "--d-min", "3", "--d-max", str(hi), "--format", "json"],
            partial(check_bound_json, sweep=sweep, lo=3, hi=hi, verify=verify, golden=golden if use_golden else None),
            inner=("phi_sieve", {"d_max": hi}),
            counts={"feasibility.feasible_pairs": sweep.feasible_pairs(hi)},
        ),
        Op(
            "bound-single",
            "cli",
            ["bound", "--d-min", str(single), "--d-max", str(single), "--format", "table"],
            partial(check_bound_table, sweep=sweep, d=single),
            inner=("phi_sieve", {"d_max": single}),
            counts={"feasibility.feasible_pairs": sweep.feasible_pairs(single)},
        ),
        Op(
            "bound-one",
            "cli",
            ["bound", "--d-min", "1", "--d-max", "1", "--format", "csv"],
            partial(check_bound_csv, expected=60),
        ),
    ]


# ------------------------------------------------------------------- scan


def check_scan(out: str, table: oracles.NormTable, golden: dict | None) -> None:
    row = json.loads(out)["rows"][0]
    expect((row["disc"], row["x"]) == (table.D, table.x), f"scan row is for {row['disc']}, x={row['x']}")
    value, norm = table.scan_min()
    expect(f"{row['min_value']:.12g}" == f"{value:.12g}", f"D={table.D}: min {row['min_value']}, oracle {value}")
    expect(row["argmin_norm"] == norm, f"D={table.D}: argmin norm {row['argmin_norm']}, oracle {norm}")
    expect(
        table.parse_ideal(row["argmin_ideal"]) == (norm, table.minphi[norm]),
        f"D={table.D}: argmin ideal {row['argmin_ideal']} has the wrong norm or phi_K",
    )
    if golden is not None:
        floor = oracles.class_number(table.D) * row["min_value"]
        expect(f"{floor:.12g}" == f"{golden['floor']:.12g}", f"h * scan = {floor}, golden {golden['floor']}")


def check_landau(out: str, table: oracles.NormTable) -> None:
    row = json.loads(out)["rows"][0]
    value, _ = table.scan_min(lo=table.x // 10)
    expect(f"{row['empirical_min_tail']:.12g}" == f"{value:.12g}", f"D={table.D}: tail min {row}, oracle {value}")
    target = oracles.landau_target(table.D)
    expect(math.isclose(row["target"], target, rel_tol=1e-9), f"D={table.D}: target {row['target']}, oracle {target}")


def check_product(out: str, expected: tuple[float, int], sane: tuple[float, float] | None = None) -> None:
    row = json.loads(out)["rows"][0]
    value, terms = expected
    expect(row["terms"] == terms, f"{row['terms']} primes, expected {terms}")
    expect(math.isclose(row["value"], value, rel_tol=1e-9), f"product {row['value']}, oracle {value}")
    if sane is not None:  # Mertens: e^gamma log(x) prod (1 - 1/p) -> 1
        scaled = row["value"] * math.exp(oracles.EULER_GAMMA) * math.log(row["x"])
        expect(sane[0] <= scaled <= sane[1], f"mertens product scaled by e^gamma log x is {scaled}")


def balanced_draw(rng: random.Random, tables: dict[int, oracles.NormTable], target: int) -> list[int]:
    """Three discriminants: the first with 40% to 45% of target ideals, the
    other two with fewer, and all three summing to within 1% of target.

    Ideal enumeration dominates the scan ops' time and the largest
    enumeration sets their peak RSS, so fixing the total and the largest
    count keeps both about the same for every seed.
    """
    counts = {D: tables[D].ideals() for D in sorted(tables, reverse=True)}
    first = rng.choice([D for D, c in counts.items() if 40 * target <= 100 * c <= 45 * target])
    rest = [D for D, c in counts.items() if 100 * c < 40 * target]
    best = None
    for _ in range(10000):
        draw = [first] + rng.sample(rest, 2)
        miss = abs(sum(counts[D] for D in draw) - target)
        if best is None or miss < best[0]:
            best = (miss, draw)
        if miss <= target // 100:
            break
    return best[1]


def scan(rng: random.Random, root: Path, small: bool = False) -> list[Op]:
    x = 1000 if small else 10**4
    x_products = 10**4 if small else 10**6
    golden = _golden(root, "phi_scan_floor.json")
    tables = {D: oracles.NormTable(D, x) for D in oracles.fundamental_discriminants(100) if D != -3}
    d1, d2, d3 = balanced_draw(rng, tables, 4 * x)
    d4 = rng.choice(sorted(tables))
    ops = [
        Op(
            "scan-golden",
            "cli",
            ["analytics", "scan", "--disc", "-3", "--x", str(10**4), "--format", "json"],
            partial(check_scan, table=oracles.NormTable(-3, 10**4), golden=golden),
            inner=("ideals", {"disc": -3, "x": 10**4}),
        )
    ]
    expect(golden["argmin_disc"] == -3 and golden["X"] == 10**4, "phi_scan_floor.json no longer pins D = -3")
    for D in (d1, d2):
        ops.append(
            Op(
                f"scan{D}",
                "cli",
                ["analytics", "scan", "--disc", str(D), "--x", str(x), "--format", "json"],
                partial(check_scan, table=tables[D], golden=None),
                inner=("ideals", {"disc": D, "x": x}),
            )
        )
    ops += [
        Op(
            f"landau{d3}",
            "cli",
            ["analytics", "landau", "--disc", str(d3), "--x", str(x), "--format", "json"],
            partial(check_landau, table=tables[d3]),
        ),
        Op(
            "mertens",
            "cli",
            ["analytics", "mertens", "--x", str(x_products), "--format", "json"],
            partial(check_product, expected=oracles.mertens(x_products), sane=(0.98, 1.02) if not small else None),
            inner=("primes", {"x": x_products}),
        ),
        Op(
            f"product{d4}",
            "cli",
            ["analytics", "product", "--disc", str(d4), "--x", str(x_products), "--format", "json"],
            partial(check_product, expected=oracles.char_product(d4, x_products)),
            inner=("primes", {"x": x_products}),
        ),
    ]
    return ops


# ------------------------------------------------------------------ audit


def check_class_numbers(out: str, discs: list[int], sample: dict[int, int], complete: bool) -> None:
    result = json.loads(out)
    h = dict(result["h"])
    expect(list(h) == discs, "class numbers do not cover the fundamental discriminants")
    expect(all(v >= 1 for v in h.values()), "a class number below 1")
    expect([D for D, _ in result["dirichlet"]] == list(sample), "character-sum sample differs")
    for D, by_sum in result["dirichlet"]:
        expect(h[D] == by_sum == sample[D], f"h({D}): forms {h[D]}, character sum {by_sum}, oracle {sample[D]}")
    if complete:  # Heegner-Baker-Stark, Baker-Stark, Oesterle: every field with h <= 3 has |D| <= 907
        counts = [list(h.values()).count(k) for k in (1, 2, 3)]
        expect(counts == [9, 18, 16], f"fields with h = 1, 2, 3: {counts}, expected [9, 18, 16]")


def check_rows(out: str, expected: list, what: str) -> None:
    rows = json.loads(out)
    expect(len(rows) == len(expected), f"{what}: {len(rows)} rows, expected {len(expected)}")
    for row, want in zip(rows, expected):
        expect(row == want, f"{what}: row {row}, expected {want}")


def check_stabilizers(out: str, grid: list) -> None:
    rows = json.loads(out)
    expect([r[:3] for r in rows] == grid, "stabilizer grid differs")
    for D, p, A, kind, order in rows:
        expect(kind == oracles.splitting(D, p), f"splitting of {p} in D={D}: {kind}")
        divisor = {"split": p - 1, "inert": 1, "ramified": p}[kind] if A == 0 else p
        expect(divisor % order == 0, f"stabilizer order {order} does not divide {divisor} (D={D}, p={p}, A={A})")


def check_refined(out: str, expected: dict) -> None:
    rows = json.loads(out)
    expect(len(rows) == len(expected), f"{len(rows)} refined rows, expected {len(expected)}")
    for D, a, b, lhs, feasible, steps in rows:
        want = expected.get((D, a, b))
        expect(want == (Fraction(lhs), feasible, steps), f"refined row ({D}, {a}, {b}) = {lhs}, {feasible}, {steps}")


def degree_bounds_row(D: int, n: int) -> list:
    lower_weak, lower, upper = oracles.degree_bounds(D, n)
    return [D, n, str(lower_weak), str(lower), upper]


def refined_expected(d: int, cap: int) -> dict:
    """(D, a, b) -> (h phi_K((ab)) / 6b, feasible, the three chain steps)."""
    out = {}
    for D in oracles.fundamental_discriminants(cap):
        h = oracles.class_number(D)
        for a, b in oracles.relaxed_pairs(d):
            lhs = Fraction(h * oracles.phi_K_of_N(D, a * b), 6 * b)
            steps = [
                2 * d >= Fraction(h * oracles.phi_K_of_N(D, a), 3),
                2 * b * d >= 2 * b * lhs,
                d >= lhs,
            ]
            out[(D, a, b)] = (lhs, lhs <= d, steps)
    return out


def kernel_grid(cap: int) -> list[list[int]]:
    return [
        [D, p, A, B]
        for D in GRID_DISCS
        for p in (2, 3, 5)
        for A in range(1, 9)
        for B in range(1, 9)
        if p ** (A + 1) <= cap and p ** (A + B) <= cap
    ]


def stabilizer_grid(cap: int) -> list[list[int]]:
    return [
        [D, p, A]
        for D in GRID_DISCS
        for p in (2, 3, 5, 7, 11, 13)
        for A in range(0, 9)
        if A == 0 or p ** (A + 1) <= cap
    ]


def audit(rng: random.Random, root: Path, small: bool = False) -> list[Op]:
    cap = 1000 if small else 10**4
    discs = oracles.fundamental_discriminants(cap)
    # one discriminant per stratum of |D|, so that the character-sum work
    # (|D| Kronecker symbols each) is about the same for every seed
    strata = 8 if small else 48
    size = len(discs) // strata
    sample = [rng.choice(discs[i * size : (i + 1) * size]) for i in range(strata)]
    group_discs = rng.sample(oracles.fundamental_discriminants(40), 1 if small else 2)
    n_group = 30 if small else 100
    grid_cap = 50 if small else 200
    d_refined, cap_refined = (3, 40) if small else (6, 100)
    n_bounds = 20 if small else 100
    kgrid, sgrid = kernel_grid(grid_cap), stabilizer_grid(grid_cap)
    bound_discs = oracles.fundamental_discriminants(100)
    return [
        Op(
            "class-numbers",
            "op",
            ["class_numbers", {"cap": cap, "sample": sample}],
            partial(
                check_class_numbers,
                discs=discs,
                sample={D: oracles.class_number(D) for D in sample},
                complete=cap >= 907,
            ),
        ),
        Op(
            "group-orders",
            "op",
            ["group_orders", {"discs": group_discs, "n_max": n_group}],
            partial(
                check_rows,
                expected=[
                    [D, n] + [oracles.phi_K_of_N(D, n)] * 3 for D in group_discs for n in range(2, n_group + 1)
                ],
                what="group order, residue count, phi_K",
            ),
        ),
        Op(
            "kernels",
            "op",
            ["kernels", {"grid": kgrid}],
            partial(check_rows, expected=[g + [g[1] ** (2 * g[3])] for g in kgrid], what="kernel size p^2B"),
        ),
        Op("stabilizers", "op", ["stabilizers", {"grid": sgrid}], partial(check_stabilizers, grid=sgrid)),
        Op(
            "refined",
            "op",
            ["refined", {"d": d_refined, "cap": cap_refined}],
            partial(check_refined, expected=refined_expected(d_refined, cap_refined)),
        ),
        Op(
            "degree-bounds",
            "op",
            ["degree_bounds", {"discs": bound_discs, "n_max": n_bounds}],
            partial(
                check_rows,
                expected=[degree_bounds_row(D, n) for D in bound_discs for n in range(1, n_bounds + 1)],
                what="degree sandwich",
            ),
        ),
    ]


WORKLOADS = {"bound": bound, "scan": scan, "audit": audit}
