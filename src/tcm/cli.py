"""Command-line surface and serialization.

The only module that performs I/O.  Data rows go to stdout in one of three
formats (table, json, csv); progress and warnings go to stderr so the data
stream stays machine-clean.  Rows are written as they are formatted.  Exit
codes: 0 success, 1 a closed stdout pipe, 2 usage error or a request over the
memory budget, 3 serialization failure (stdout then holds what was written
before it).

A command loads only what it runs: ``feasibility`` and ``analytics`` are
imported at the first call of a library function (``_lazy``), ``json``
only by the json writer, ``csv`` only by the csv writer, and the help
renderers' modules only for help.
"""

from __future__ import annotations

import math
import os
import sys
from importlib import import_module
from itertools import islice

from . import __version__
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
    """ValueError, before any factoring, if a value is over FACTOR_MAX in size."""
    for name, value in values.items():
        if abs(value) > FACTOR_MAX:
            raise ValueError(f"|--{name}| = {abs(value)} is over the factoring bound {FACTOR_MAX:,}")


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

# rows per call of the C encoder in serialize_json: at 16 most of the cost
# of one call per row is gone; larger batches save little more, and they
# raise the peak RSS (by about 0.25 MB at 128 bound rows, and a batch of
# 256 passes WRITE_BYTES)
JSON_BATCH = 16


def make_envelope(command: str, params: dict, rows, **meta_extra) -> dict:
    """The output document; rows is an iterable of flat dicts, which a
    table iterates twice."""
    meta = {"version": __version__}
    meta.update(meta_extra)
    return {"command": command, "params": params, "rows": rows, "meta": meta}


def serialize_json(envelope: dict, out) -> None:
    """Write json.dumps(envelope, indent=2) and a newline, JSON_BATCH rows at a time.

    Each row must be flat, every value a JSON scalar.  The rows read
    before the row iterator raises are written too, so stdout holds a
    prefix of the output.
    """
    import json

    # a batch of flat rows as one list, each item separator the indented
    # one of json.dumps(indent=2) inside the envelope; a row's closing
    # brace, the separator and the next row's opening brace are then
    # rewritten as the indented break between rows.  JSON escapes control
    # characters inside strings, so a raw newline, and with it that
    # sequence, appears only between the rows of a flat batch
    encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
    # the keys before and after "rows" at the envelope's own indent: head
    # less its closing "\n}", tail less its opening "{"
    head = json.dumps({"command": envelope["command"], "params": envelope["params"]}, indent=2)
    tail = json.dumps({"meta": envelope["meta"]}, indent=2)
    out.write(head[:-2] + ',\n  "rows": [')
    rows, comma = iter(envelope["rows"]), ""
    while True:
        batch = []
        try:
            for row in islice(rows, JSON_BATCH):
                batch.append(row)
        finally:  # also when the iterator raised
            if batch:
                text = encode(batch)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                out.write(comma + "\n    {\n      " + text + "\n    }")
                comma = ","
        if len(batch) < JSON_BATCH:
            break
    out.write(("\n  ]," if comma else "],") + tail[1:] + "\n")


def serialize_csv(rows, out) -> None:
    """Write the rows as CSV, a header from the first row's keys, None as ""."""
    import csv

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
    except OSError:  # a failed write to stdout, such as a closed pipe, is main's to report
        raise
    except Exception as exc:  # pragma: no cover - exercised via injection in tests
        print(f"serialization failed: {exc}", file=sys.stderr)
        sys.exit(3)


def brute_check(d, n: int, value: int) -> dict:
    """The residue-ring count of phi_K((n)) when n is small, and whether it equals value."""
    from .ideal_arith import BRUTE_FORCE_CAP, brute_force_phi

    brute = brute_force_phi(d, n) if n <= BRUTE_FORCE_CAP else None
    return {"brute_force": brute, "agree": None if brute is None else brute == value}


def _lazy(module: str, name: str):
    """tcm.<module>.<name>, imported at its first call.

    ``tcm --version`` loads neither ``feasibility`` nor ``analytics``, the
    analytics commands do without ``feasibility``, and ``bound``, ``phi``
    and ``galois`` without ``analytics``.  The commands call these through
    the module's globals, so a caller can wrap each one by setattr on this
    module.
    """

    def call(*args):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args)

    call.__name__ = call.__qualname__ = name
    return call


bound_records = _lazy("feasibility", "bound_records")
sweep_region = _lazy("feasibility", "sweep_region")
mertens_product = _lazy("analytics", "mertens_product")
char_euler_product = _lazy("analytics", "char_euler_product")
phi_bound_scan = _lazy("analytics", "phi_bound_scan")
landau_liminf_check = _lazy("analytics", "landau_liminf_check")


# ---------------------------------------------------------------- commands
# Each returns (rows, meta); a ValueError is a usage error of its command.


def bound(d_min, d_max):
    from .feasibility import constant_over

    if not 1 <= d_min <= d_max <= 10**6:
        raise ValueError(f"need 1 <= d-min <= d-max <= 10^6, got [{d_min}, {d_max}]")
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
        from .feasibility import bound_ratio

        for run in self.runs:
            for d in range(run.d_lo, run.d_hi + 1):
                ratio = None if d < 3 else _round12(bound_ratio(d, run.bound))
                yield {"d": d, "a": 1, "b": run.bound, "bound": run.bound, "ratio": ratio}


def phi(disc, n):
    from .ideal_arith import ideal_norm, phi_K, principal_ideal
    from .quad_core import as_discriminant

    check_factorable(disc=disc, n=n)
    d = as_discriminant(disc)
    ideal = principal_ideal(d, n)
    value = phi_K(ideal)
    row = {"disc": disc, "n": n, "phi": value, "norm": ideal_norm(ideal)}
    return [{**row, "factorization": str(ideal), **brute_check(d, n, value)}], {}


def galois(disc, p, A, B, n):
    from .galois_image import cn_elements, kernel_size, max_stabilizer_order, verify_homotheties
    from .quad_core import as_discriminant

    check_factorable(disc=disc)
    if (n is None and None in (p, A)) or (n is not None and (p, A, B) != (None, None, None)):
        raise ValueError("need either --n, or --p with --a (and optionally --b)")
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


def mertens(x):
    preflight(f"primes up to x = {x}", prime_list_bytes(x))
    est = mertens_product(x)
    return [{"x": x, "value": _round12(est.value), "terms": est.terms}], {}


def product(disc, x):
    from .analytics import product_bytes

    check_factorable(disc=disc)
    preflight(f"primes up to x = {x} and the character mod {abs(disc)}", product_bytes(disc, x))
    est = char_euler_product(disc, x)
    return [{"disc": disc, "x": x, "value": _round12(est.value), "terms": est.terms}], {}


def scan(disc, x):
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


def landau(disc, x):
    from .analytics import scan_bytes

    if abs(disc) > CLASS_NUMBER_MAX:
        raise ValueError(f"|--disc| = {abs(disc)} is over the class-number bound {CLASS_NUMBER_MAX:,}")
    preflight(f"norm search and count up to x = {x}", scan_bytes(disc, x))
    result = landau_liminf_check(disc, x)
    row = {
        "disc": disc,
        "x": x,
        "empirical_min_tail": _round12(result.empirical_min_tail),
        "target": _round12(result.target),
    }
    return [row], {"window": list(result.window), "norms": result.norms}


def _int(flag: str, help: str = "", required: bool = True, dest: str | None = None) -> tuple:
    return (flag, dest or flag[2:].replace("-", "_"), int, required, None, help)


# path -> (function, help, *options); an option is (flag, dest, type, required, default,
# help), its type int or a tuple of choices.  A group has no function, and its commands are
# the paths one word longer.  params echo a command's options in this order, unset ones left out.
_FORMAT = ("--format", "fmt", ("json", "csv", "table"), False, "table", "Output format for data rows.")
COMMANDS = {
    "": (None, "Explicit per-degree bounds on CM elliptic-curve torsion, plus the exact and analytic "
         "machinery behind them."),
    "bound": (bound, "Per-degree torsion bounds B(d) with maximizing shapes.",
        _int("--d-min", "Smallest degree."), _int("--d-max", "Largest degree."), _FORMAT),
    "phi": (phi, "Ideal Euler function of (n), with brute-force cross-check when small.",
        _int("--disc", "Fundamental discriminant (< 0)."), _int("--n", "Generator of the principal ideal."),
        _FORMAT),
    "galois": (galois, "Unit-group scans: group orders, reduction kernels, point stabilizers.",
        _int("--disc", "Discriminant (< 0, 0 or 1 mod 4)."), _int("--p", "Prime level.", False),
        _int("--a", "Exponent A (>= 0).", False, "A"), _int("--b", "Kernel depth B (>= 1).", False, "B"),
        _int("--n", "Composite level: group order mode.", False), _FORMAT),
    "analytics": (None, "Product estimates and empirical constant scans."),
    "analytics mertens": (mertens, "Product of (1 - 1/p) over primes p <= x.",
        _int("--x", "Prime cutoff."), _FORMAT),
    "analytics product": (product, "Character Euler product of (1 - chi(p)/p) over primes p <= x.",
        _int("--disc"), _int("--x", "Prime cutoff."), _FORMAT),
    "analytics scan": (scan, "Minimum of phi_K(c) loglog|c| / |c| over ideals with 3 <= |c| <= x.",
        _int("--disc"), _int("--x", "Norm cutoff."), _FORMAT),
    "analytics landau": (landau, "Tail minimum of phi_K(a) loglog|a| / |a| against e^-gamma / L(1,chi).",
        _int("--disc"), _int("--x", "Norm cutoff (>= 100)."), _FORMAT),
}


# ------------------------------------------------------ parser, help, main
# Usage errors and help pages are click's, byte for byte, wrapped to the
# terminal; textwrap, difflib and shutil load only to render them.


class UsageError(Exception):
    """(path, message): a usage error of the command at path, or of none."""


def _children(path: str) -> list[str]:
    return sorted(key.rpartition(" ")[2] for key in COMMANDS if key and key.rpartition(" ")[0] == path)


def _did_you_mean(word: str, names) -> str:
    from difflib import get_close_matches

    close = sorted(get_close_matches(word, names))
    listed = ", ".join(map(repr, close))
    return f" (Did you mean one of: {listed}?)" if close[1:] else f" Did you mean {listed}?" if close else ""


def _parse(path: str, args: list[str], prog: str) -> tuple[dict | None, list[str]]:
    """({dest: value} in table order, or None once --help or --version has printed; the
    arguments left, a group's command and what follows it).  Errors come in click's order:
    each argument as read, each option as first given and the others as declared, then extras."""
    fn, _, *options = COMMANDS[path]
    known = {option[0]: option for option in options}
    flags = ("--help",) if path else ("--version", "--help")
    given, rest = {}, []  # given keeps each flag where it first came
    it = iter(args)
    for arg in it:
        if arg == "--":
            rest += it
        elif arg[:1] != "-" or arg == "-":
            rest += [arg, *it] if fn is None else [arg]  # a group's options end at its command
        else:
            flag, eq, value = arg.partition("=")
            if flag not in known and flag not in flags:
                if arg[:2] != "--":
                    raise UsageError(path, f"No such option {arg[:2]!r}.")
                raise UsageError(path, f"No such option {flag!r}." + _did_you_mean(flag, [*known, *flags]))
            if eq and flag in flags:
                raise UsageError(None, f"Option '{flag}' does not take a value.")
            if not eq and flag in known and (value := next(it, None)) is None:
                raise UsageError(None, f"Option '{flag}' requires an argument.")
            given[flag] = value
    for flag in given:
        if flag in flags:
            print(_help(path, prog) if flag == "--help" else f"tcm, version {__version__}")
            return None, []
    values = dict.fromkeys(option[1] for option in options)
    for flag in dict.fromkeys([*given, *known]):  # as first given, then as declared
        _, dest, kind, required, default, _ = known[flag]
        raw = given.get(flag)
        if raw is None and required:
            raise UsageError(path, f"Missing option '{flag}'.")
        try:
            values[dest] = default if raw is None else int(raw) if kind is int else kind[kind.index(raw)]
        except ValueError:
            why = "a valid integer" if kind is int else f"one of {', '.join(map(repr, kind))}"
            raise UsageError(path, f"Invalid value for '{flag}': {raw!r} is not {why}.") from None
    if rest and fn is not None:
        raise UsageError(path, f"Got unexpected extra argument{'s' * (len(rest) > 1)} ({' '.join(rest)})")
    return values, rest


def _width() -> int:
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _usage(path: str, prog: str, width: int) -> str:
    from textwrap import fill

    head = f"Usage: {prog} {path}".rstrip() + " "
    pieces = "[OPTIONS]" if COMMANDS[path][0] else "[OPTIONS] COMMAND [ARGS]..."
    if width >= len(head) + 20:
        return fill(pieces, width, initial_indent=head, subsequent_indent=" " * len(head))
    return head + "\n" + fill(pieces, width, initial_indent=" " * 11, subsequent_indent=" " * 11)


def _definitions(title: str, rows: list[tuple[str, str]], width: int) -> list[str]:
    from textwrap import wrap

    indent = max(len(term) for term, _ in rows) + 4
    lines = ["", f"{title}:"]
    for term, text in rows:
        first, *more = wrap(text, max(width - indent, 10))
        lines += [f"  {term}".ljust(indent) + first, *(" " * indent + line for line in more)]
    return lines


def _help(path: str, prog: str) -> str:
    from textwrap import fill, shorten

    width = _width()
    fn, text, *options = COMMANDS[path]
    rows = []
    for flag, _, kind, required, default, help in options:
        notes = "; ".join([f"default: {default}"] * (default is not None) + ["required"] * required)
        metavar = "INTEGER" if kind is int else f"[{'|'.join(kind)}]"
        rows.append((f"{flag} {metavar}", f"{help}  [{notes}]".lstrip() if notes else help))
    rows += [("--version", "Show the version and exit.")] * (not path)
    rows.append(("--help", "Show this message and exit."))
    lines = [_usage(path, prog, width), "", fill(text, width, initial_indent="  ", subsequent_indent="  ")]
    lines += _definitions("Options", rows, width)
    if fn is None:  # each help is one sentence, so click's short help is shorten's
        limit = width - 6 - max(map(len, _children(path)))
        rows = [(name, COMMANDS[f"{path} {name}".lstrip()][1]) for name in _children(path)]
        rows = [(name, shorten(help, limit, placeholder="...", break_on_hyphens=False)) for name, help in rows]
        lines += _definitions("Commands", rows, width)
    return "\n".join(lines)


def main(args: list[str] | None = None, prog: str | None = None) -> None:
    """Run one command on args (sys.argv[1:]), prog naming the program in help and errors.
    Returns on success; exits 2 on a usage error (a bare group too, after its help), 1 on
    a closed pipe."""
    args = sys.argv[1:] if args is None else list(args)
    if prog is None:  # python -m <package> when run as a module, else the file name of argv[0]
        package, name = getattr(sys.modules["__main__"], "__package__", None), os.path.basename(sys.argv[0])
        stem = os.path.splitext(name)[0]
        prog = f"python -m {package}" + ("" if stem == "__main__" else f".{stem}") if package else name
    path = ""
    try:
        while COMMANDS[path][0] is None:
            if not args:
                print(_help(path, prog), file=sys.stderr)
                sys.exit(2)
            values, args = _parse(path, args, prog)
            if values is None:
                return
            if not args:
                raise UsageError(path, "Missing command.")
            name, command = args[0], f"{path} {args[0]}".lstrip()
            if command not in COMMANDS:
                if not name[:1].isalnum() and _parse(path, args, prog)[0] is None:
                    return  # as in click, an option-like name is read again as the group's options
                raise UsageError(path, f"No such command {name!r}." + _did_you_mean(name, _children(path)))
            path, args = command, args[1:]
        values, _ = _parse(path, args, prog)
        if values is None:
            return
        fmt = values.pop("fmt")
        try:
            rows, meta = COMMANDS[path][0](**values)
        except ValueError as exc:
            raise UsageError(path, str(exc)) from exc
        params = {k: v for k, v in values.items() if v is not None}
        emit(make_envelope(path.replace(" ", "."), {**params, "format": fmt}, rows, **meta), fmt)
    except UsageError as exc:
        where, message = exc.args
        if where is not None:
            command = f"{prog} {where}".rstrip()
            print(f"{_usage(where, prog, _width())}\nTry '{command} --help' for help.\n", file=sys.stderr)
        print(f"Error: {message}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:  # what stdout still buffers is flushed at exit: send it to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
