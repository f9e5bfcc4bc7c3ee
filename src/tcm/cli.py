"""Command-line surface and serialization.

The only module that performs I/O.  Data rows go to stdout in one of
three formats (table, json, csv); progress and warnings go to stderr so
the data stream stays machine-clean.  Rows are written as they are
formatted.  Exit codes: 0 success, 2 usage error or a request over the
memory budget, 3 serialization failure (stdout then holds what was
written before it).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys

import click

from . import __version__
from .feasibility import bound_ratio, bound_records, constant_over, sweep_region
from .primes import prime_list_bytes

# the peak memory of tcm bound is its writing phase, where csv's record
# buffer alone is 128 KiB, beside the runs (262 at most up to d = 10^6);
# the region's three counts and the search hold less, at any --d-max
WRITE_BYTES = 256 << 10

# the largest |--disc| and --n that phi, galois, scan, landau and product factor:
# trial division is O(sqrt(n)), 0.035 s at the prime 10^12 + 39 on a
# 2-core Xeon VM
FACTOR_MAX = 10**12

# the largest |--disc| whose class number landau counts: the form count is
# O(|d|), 0.47 s at |d| = 10^8 + 7 and 5.1 s at 10^9 + 7 on the same VM
CLASS_NUMBER_MAX = 10**9


def _round12(x: float) -> float:
    """Clamp a float to 12 significant digits (the serialized precision)."""
    return float(f"{x:.12g}")


def memory_budget() -> int:
    """The most one request may plan to allocate: half of physical RAM."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def check_factorable(**values: int) -> None:
    """Usage error, before any factoring, if a value is over FACTOR_MAX in size."""
    for name, value in values.items():
        if abs(value) > FACTOR_MAX:
            raise click.UsageError(
                f"|--{name}| = {abs(value)} is over the factoring bound {FACTOR_MAX:,}"
            )


def _size(n: int, rounding) -> str:
    """n bytes in whole MiB, or in whole KiB below 1 MiB, rounded by rounding."""
    unit, name = (2**20, "MiB") if n >= 2**20 else (2**10, "KiB")
    return f"{rounding(n / unit):,} {name}"


def preflight(what: str, estimate: int) -> None:
    """Exit 2 before allocating anything if the estimated peak memory is over budget.

    The message rounds the estimate up and the budget down, so the one it
    prints is over the other it prints.
    """
    budget = memory_budget()
    if estimate > budget:
        print(
            f"error: {what} needs an estimated {_size(estimate, math.ceil)}, over the "
            f"budget of {_size(budget, math.floor)} (half of physical RAM)",
            file=sys.stderr,
        )
        sys.exit(2)


# ---------------------------------------------------------------- envelope

# a flat row as json.dumps(indent=2) lays it out inside the envelope, less
# its braces: the C encoder with the indented item separator
_encode_row = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def make_envelope(command: str, params: dict, rows, **meta_extra) -> dict:
    """The output document; rows is an iterable of flat dicts, which a
    table iterates twice."""
    meta = {"version": __version__}
    meta.update(meta_extra)
    return {"command": command, "params": params, "rows": rows, "meta": meta}


def serialize_json(envelope: dict, out) -> None:
    """Write json.dumps(envelope, indent=2) and a newline, row by row.

    Each row must be flat, every value a JSON scalar.
    """
    # the keys before and after "rows" at the envelope's own indent: head
    # less its closing "\n}", tail less its opening "{"
    head = json.dumps({"command": envelope["command"], "params": envelope["params"]}, indent=2)
    tail = json.dumps({"meta": envelope["meta"]}, indent=2)
    out.write(head[:-2] + ',\n  "rows": [')
    comma = ""
    for row in envelope["rows"]:
        out.write(comma + "\n    {\n      " + _encode_row(row)[1:-1] + "\n    }")
        comma = ","
    out.write(("\n  ]," if comma else "],") + tail[1:] + "\n")


def serialize_csv(rows, out) -> None:
    """Write the rows as CSV, a header from the first row's keys, None as ""."""
    writer = csv.writer(out, lineterminator="\n")
    header = None
    for row in rows:
        if header is None:
            header = list(row)
            writer.writerow(header)
        writer.writerow(["" if row[k] is None else row[k] for k in header])
    if header is None:
        out.write("\n")


def _cells(row: dict, header: list) -> list[str]:
    return ["-" if row[k] is None else str(row[k]) for k in header]


def serialize_table(rows, out) -> None:
    """Write the rows as aligned columns, None as "-".

    One pass over the rows takes the column widths, a second writes them,
    so rows must be iterable twice.
    """
    header = widths = None
    for row in rows:
        if header is None:
            header = list(row)
            widths = [len(h) for h in header]
        widths = list(map(max, widths, map(len, _cells(row, header))))
    if header is None:
        out.write("(no rows)\n")
        return
    out.write("  ".join(map(str.ljust, header, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        out.write("  ".join(map(str.ljust, _cells(row, header), widths)) + "\n")


def emit(envelope: dict, fmt: str) -> None:
    """Write the envelope to stdout in the chosen format; exit 3 on failure.

    Rows are written as they are formatted, so a failure after the first
    row leaves a prefix of the output on stdout.
    """
    try:
        if fmt == "json":
            serialize_json(envelope, sys.stdout)
        elif fmt == "csv":
            serialize_csv(envelope["rows"], sys.stdout)
        else:
            serialize_table(envelope["rows"], sys.stdout)
    except OSError:  # a failed write to stdout, such as a closed pipe, is click's to report
        raise
    except Exception as exc:  # pragma: no cover - exercised via injection in tests
        print(f"serialization failed: {exc}", file=sys.stderr)
        sys.exit(3)


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "table"]),
    default="table",
    show_default=True,
    help="Output format for data rows.",
)


def data_command(group: click.Group, name: str):
    """Register a function returning (rows, meta) as a data command of group.

    The command maps a library ValueError to a usage error, echoes the
    options given as `params` (in declaration order, then `format`) and
    emits the envelope `name` in the chosen format.
    """

    def register(fn):
        @functools.wraps(fn)
        def command(fmt, **options):
            try:
                rows, meta = fn(**options)
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
            declared = [p.name for p in click.get_current_context().command.params]
            params = {k: options[k] for k in declared if options.get(k) is not None}
            emit(make_envelope(name, {**params, "format": fmt}, rows, **meta), fmt)

        return group.command()(command)

    return register


def brute_check(d, n: int, value: int) -> dict:
    """The residue-ring count of phi_K((n)) when n is small, and whether it equals value."""
    from .ideal_arith import BRUTE_FORCE_CAP, brute_force_phi

    brute = brute_force_phi(d, n) if n <= BRUTE_FORCE_CAP else None
    return {"brute_force": brute, "agree": None if brute is None else brute == value}


def _analytics(name: str):
    """analytics.<name>, imported at its first call.

    ``tcm bound``, ``phi``, ``galois`` and ``--version`` do without the
    module.  The commands call these through the module's globals, so a
    caller can wrap each one by setattr on this module.
    """

    def call(*args):
        from . import analytics

        return getattr(analytics, name)(*args)

    call.__name__ = call.__qualname__ = name
    return call


mertens_product = _analytics("mertens_product")
char_euler_product = _analytics("char_euler_product")
phi_bound_scan = _analytics("phi_bound_scan")
landau_liminf_check = _analytics("landau_liminf_check")


# ---------------------------------------------------------------- commands


@click.group()
@click.version_option(version=__version__, prog_name="tcm")
def cli():
    """Explicit per-degree bounds on CM elliptic-curve torsion, plus the
    exact and analytic machinery behind them."""


@data_command(cli, "bound")
@click.option("--d-min", type=int, required=True, help="Smallest degree.")
@click.option("--d-max", type=int, required=True, help="Largest degree.")
@_format_option
def bound(d_min, d_max):
    """Per-degree torsion bounds B(d) with maximizing shapes."""
    if not 1 <= d_min <= d_max <= 10**6:
        raise click.UsageError(f"need 1 <= d-min <= d-max <= 10^6, got [{d_min}, {d_max}]")
    region = sweep_region(d_max)
    preflight(f"bound up to d = {d_max} (n_max = {region.n_max})", WRITE_BYTES)
    runs = bound_records(d_min, d_max)
    constant = None
    if d_max >= 3:
        est = constant_over(runs)
        constant = {"value": _round12(est.value), "argmax_d": est.argmax_d}
        print(
            f"running constant over d in [{max(d_min, 3)}, {d_max}]: "
            f"{est.value:.12g} at d={est.argmax_d}",
            file=sys.stderr,
        )
    return BoundRows(runs), {"constant": constant, **region._asdict()}


class BoundRows:
    """The rows of ``tcm bound``, expanded from the runs on each pass."""

    def __init__(self, runs):
        self.runs = runs

    def __iter__(self):
        for run in self.runs:
            for d in range(run.d_lo, run.d_hi + 1):
                ratio = None if d < 3 else _round12(bound_ratio(d, run.bound))
                yield {"d": d, "a": 1, "b": run.bound, "bound": run.bound, "ratio": ratio}


@data_command(cli, "phi")
@click.option("--disc", type=int, required=True, help="Fundamental discriminant (< 0).")
@click.option("--n", type=int, required=True, help="Generator of the principal ideal.")
@_format_option
def phi(disc, n):
    """Ideal Euler function of (n), with brute-force cross-check when small."""
    from .ideal_arith import ideal_norm, phi_K, principal_ideal
    from .quad_core import as_discriminant

    check_factorable(disc=disc, n=n)
    d = as_discriminant(disc)
    ideal = principal_ideal(d, n)
    value = phi_K(ideal)
    row = {"disc": disc, "n": n, "phi": value, "norm": ideal_norm(ideal)}
    return [{**row, "factorization": str(ideal), **brute_check(d, n, value)}], {}


@data_command(cli, "galois")
@click.option("--disc", type=int, required=True, help="Discriminant (< 0, 0 or 1 mod 4).")
@click.option("--p", type=int, default=None, help="Prime level.")
@click.option("--a", "A", type=int, default=None, help="Exponent A (>= 0).")
@click.option("--b", "B", type=int, default=None, help="Kernel depth B (>= 1).")
@click.option("--n", type=int, default=None, help="Composite level: group order mode.")
@_format_option
def galois(disc, p, A, B, n):
    """Unit-group scans: group orders, reduction kernels, point stabilizers."""
    from .galois_image import cn_elements, kernel_size, max_stabilizer_order, verify_homotheties
    from .quad_core import as_discriminant

    check_factorable(disc=disc)
    if (n is None and None in (p, A)) or (n is not None and (p, A, B) != (None, None, None)):
        raise click.UsageError("need either --n, or --p with --a (and optionally --b)")
    d = as_discriminant(disc)
    if n is not None:
        order = len(cn_elements(d, n))
        row = {"disc": disc, "n": n, "order": order, **brute_check(d, n, order)}
        return [{**row, "homotheties": verify_homotheties(d, n)}], {}
    if B is not None:
        size = kernel_size(d, p, A, B)
        row = {"kernel_size": size, "expected": p ** (2 * B), "surjective": True}
        return [{"disc": disc, "p": p, "A": A, "B": B, **row}], {}
    report = max_stabilizer_order(d, p, A)
    row = {
        "split_type": report.split_type.value,
        "max_stabilizer_order": report.max_stabilizer_order,
        "expected_divisor": report.expected_divisor,
        "divides": report.divides,
    }
    return [{"disc": disc, "p": p, "A": A, **row}], {}


@cli.group()
def analytics():
    """Product estimates and empirical constant scans."""


@data_command(analytics, "analytics.mertens")
@click.option("--x", type=int, required=True, help="Prime cutoff.")
@_format_option
def mertens(x):
    """Product of (1 - 1/p) over primes p <= x."""
    preflight(f"primes up to x = {x}", prime_list_bytes(x))
    est = mertens_product(x)
    return [{"x": x, "value": _round12(est.value), "terms": est.terms}], {}


@data_command(analytics, "analytics.product")
@click.option("--disc", type=int, required=True)
@click.option("--x", type=int, required=True, help="Prime cutoff.")
@_format_option
def product(disc, x):
    """Character Euler product of (1 - chi(p)/p) over primes p <= x."""
    from .analytics import product_bytes

    check_factorable(disc=disc)
    preflight(f"primes up to x = {x} and the character mod {abs(disc)}", product_bytes(disc, x))
    est = char_euler_product(disc, x)
    return [{"disc": disc, "x": x, "value": _round12(est.value), "terms": est.terms}], {}


@data_command(analytics, "analytics.scan")
@click.option("--disc", type=int, required=True)
@click.option("--x", type=int, required=True, help="Norm cutoff.")
@_format_option
def scan(disc, x):
    """Minimum of phi_K(c) loglog|c| / |c| over ideals with 3 <= |c| <= x."""
    from .analytics import scan_bytes
    from .ideal_arith import ideal_norm

    check_factorable(disc=disc)
    preflight(f"norm search and count up to x = {x}", scan_bytes(disc, x))
    result = phi_bound_scan(disc, x)
    row = {
        "disc": disc,
        "x": x,
        "min_value": _round12(result.min_value),
        "argmin_norm": ideal_norm(result.argmin_ideal),
        "argmin_ideal": str(result.argmin_ideal),
    }
    return [row], {"window": list(result.window), "norms": result.norms}


@data_command(analytics, "analytics.landau")
@click.option("--disc", type=int, required=True)
@click.option("--x", type=int, required=True, help="Norm cutoff (>= 100).")
@_format_option
def landau(disc, x):
    """Tail minimum of phi_K(a) loglog|a| / |a| against e^-gamma / L(1,chi)."""
    from .analytics import scan_bytes

    if abs(disc) > CLASS_NUMBER_MAX:
        raise click.UsageError(
            f"|--disc| = {abs(disc)} is over the class-number bound {CLASS_NUMBER_MAX:,}"
        )
    preflight(f"norm search and count up to x = {x}", scan_bytes(disc, x))
    result = landau_liminf_check(disc, x)
    row = {
        "disc": disc,
        "x": x,
        "empirical_min_tail": _round12(result.empirical_min_tail),
        "target": _round12(result.target),
    }
    return [row], {"window": list(result.window), "norms": result.norms}


def main():
    cli()


if __name__ == "__main__":
    main()
