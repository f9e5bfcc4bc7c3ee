import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from tcm import cli as cli_mod
from tcm.cli import (
    BoundRows,
    make_envelope,
    serialize_csv,
    serialize_json,
    serialize_table,
)
from tcm import feasibility
from tcm.feasibility import bound_ratio, bound_records, sweep_region
from tcm.quad_core import kronecker

from conftest import child_peak_rss, expand_runs, ideal_count_oracle, invoke, oracle_scan, trial_factor


# ------------------------------------------------------------- serialization


def written(serialize, *args) -> str:
    out = io.StringIO()
    serialize(*args, out)
    return out.getvalue()


def reference_csv(rows: list[dict]) -> str:
    """The whole-text CSV writer the streaming one replaced, and echo's newline."""
    buf = io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row[k] is None else row[k] for k in header])
    return buf.getvalue().rstrip("\n") + "\n"


def reference_table(rows: list[dict]) -> str:
    """The whole-text table writer the streaming one replaced, and echo's newline."""
    if not rows:
        return "(no rows)\n"
    header = list(rows[0].keys())
    cells = [[("-" if row[k] is None else str(row[k])) for k in header] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines) + "\n"


ROW_SETS = {
    "zero": [],
    "one": [{"d": 1, "ratio": None}],
    "many": [
        {"name": None, "n": 3, "value": 0.1, "ok": True, "note": 'say "hi", then\nleave \\ \u00e9'},
        {"name": "P2^2", "n": None, "value": 850.631024951, "ok": False, "note": "tab\there"},
        {"name": "", "n": -7, "value": 1e-300, "ok": None, "note": "a,b"},
        {"name": "x", "n": 2**63, "value": None, "ok": True, "note": None},
    ],
}


def test_envelope_json_round_trip():
    rows = [
        {"d": 1, "a": 1, "b": 60, "bound": 60, "ratio": None},
        {"d": 3, "a": 1, "b": 240, "bound": 240, "ratio": 850.631024951},
    ]
    envelope = make_envelope("bound", {"d_min": 1, "d_max": 3, "format": "json"}, rows)
    assert json.loads(written(serialize_json, envelope)) == envelope


def tricky_rows(count: int) -> list[dict]:
    """count flat rows whose strings hold braces, commas, quotes and newlines,
    among them the row break the json writer rewrites."""
    notes = ['}, {', '},\n      {', 'say "}",\n{"a": 1}', "{\n    },\n    {", ",", '"']
    return [
        {"d": i, "note": notes[i % len(notes)], "key,}{": None if i % 3 else f"{i}\n}}", "ratio": i / 7}
        for i in range(count)
    ]


# row counts around the json writer's batch: none, one, one batch less a row,
# one batch, one more, and two batches and a row
BATCH_ROW_SETS = {
    f"batch-{n}": tricky_rows(n)
    for n in (0, 1, cli_mod.JSON_BATCH - 1, cli_mod.JSON_BATCH, cli_mod.JSON_BATCH + 1, 2 * cli_mod.JSON_BATCH + 1)
}


@pytest.mark.parametrize(
    "rows", [*ROW_SETS.values(), *BATCH_ROW_SETS.values()], ids=[*ROW_SETS, *BATCH_ROW_SETS]
)
def test_json_writer_equals_json_dumps(rows):
    envelope = make_envelope("bound", {"d_min": 1, "name": 'a"b', "format": "json"}, rows, window=[3, 10], x=None)
    assert written(serialize_json, envelope) == json.dumps(envelope, indent=2) + "\n"
    assert json.loads(written(serialize_json, envelope)) == envelope
    streamed = make_envelope("bound", {}, iter(rows), constant={"value": 0.5, "argmax_d": 3})
    assert written(serialize_json, streamed) == json.dumps({**streamed, "rows": rows}, indent=2) + "\n"


@pytest.mark.parametrize("read", [1, cli_mod.JSON_BATCH - 1, cli_mod.JSON_BATCH, cli_mod.JSON_BATCH + 5])
def test_json_writer_writes_the_rows_read_before_the_iterator_raised(read):
    # a partial batch is written before the error propagates, so the output
    # is the full output's prefix up to and including the last row read
    rows = tricky_rows(2 * cli_mod.JSON_BATCH + 1)

    def failing():
        yield from rows[:read]
        raise TypeError("unserializable")

    out = io.StringIO()
    with pytest.raises(TypeError, match="unserializable"):
        serialize_json(make_envelope("bound", {}, failing()), out)
    full = written(serialize_json, make_envelope("bound", {}, rows))
    prefix = written(serialize_json, make_envelope("bound", {}, rows[:read]))
    assert full.startswith(out.getvalue())
    assert out.getvalue() == prefix[: prefix.rindex("\n  ]")]


@pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
def test_csv_and_table_writers_equal_the_whole_text_writers(rows):
    assert written(serialize_csv, rows) == reference_csv(rows)
    assert written(serialize_csv, iter(rows)) == reference_csv(rows)
    assert written(serialize_table, rows) == reference_table(rows)


def test_csv_none_becomes_empty_cell():
    assert written(serialize_csv, [{"d": 1, "ratio": None}]) == "d,ratio\n1,\n"


def test_bound_rows_stream_in_steps():
    # rows across several runs, and a pass that can be repeated (table widths)
    runs = bound_records(1, 30)
    assert len(runs) > 5
    rows = BoundRows(runs)
    assert list(rows) == list(rows)
    assert [row["d"] for row in rows] == list(range(1, 31))
    for row, (bound, a, b) in zip(rows, expand_runs(runs)):
        assert (row["bound"], row["a"], row["b"]) == (bound, a, b) and type(row["bound"]) is int
        ratio = None if row["d"] < 3 else float(f"{bound_ratio(row['d'], bound):.12g}")
        assert row["ratio"] == ratio


def test_bound_json_rows_match_library():
    result = invoke(["bound", "--d-min", "3", "--d-max", "40", "--format", "json"])
    assert result.exit_code == 0
    envelope = json.loads(result.stdout)
    expected = [
        {"d": d, "a": a, "b": b, "bound": bound, "ratio": float(f"{bound_ratio(d, bound):.12g}")}
        for d, (bound, a, b) in enumerate(expand_runs(bound_records(3, 40)), start=3)
    ]
    assert envelope["rows"] == expected
    assert envelope["command"] == "bound"
    assert envelope["params"] == {"d_min": 3, "d_max": 40, "format": "json"}
    assert envelope["meta"]["constant"]["argmax_d"] == 3
    assert "running constant" in result.stderr


def test_bound_csv_agrees_with_json_row_for_row():
    js = invoke(["bound", "--d-min", "1", "--d-max", "30", "--format", "json"])
    cv = invoke(["bound", "--d-min", "1", "--d-max", "30", "--format", "csv"])
    assert js.exit_code == 0 and cv.exit_code == 0
    json_rows = json.loads(js.stdout)["rows"]
    csv_rows = list(csv.DictReader(io.StringIO(cv.stdout)))
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert set(jrow) == set(crow)
        for key, jval in jrow.items():
            cval = crow[key]
            if jval is None:
                assert cval == ""
            elif isinstance(jval, int):
                assert int(cval) == jval
            else:
                assert float(cval) == jval


def test_bound_single_degree_csv():
    result = invoke(["bound", "--d-min", "1", "--d-max", "1", "--format", "csv"])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == ["d,a,b,bound,ratio", "1,1,60,60,"]


def test_bound_default_table_format():
    result = invoke(["bound", "--d-min", "1", "--d-max", "2"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["d", "a", "b", "bound", "ratio"]
    assert lines[2].split() == ["1", "1", "60", "60", "-"]


def test_bound_invalid_range_is_usage_error():
    assert invoke(["bound", "--d-min", "5", "--d-max", "3"]).exit_code == 2
    assert invoke(["bound", "--d-min", "0", "--d-max", "3"]).exit_code == 2


def test_bound_meta_records_the_cutoffs_used():
    result = invoke(["bound", "--d-min", "3", "--d-max", "100", "--format", "json"])
    assert result.exit_code == 0
    meta = json.loads(result.stdout)["meta"]
    region = sweep_region(100)
    assert meta["n_max"] == region.n_max
    assert meta["a_max"] == region.a_max
    assert meta["pairs_scanned"] == region.pairs_scanned
    assert "timestamp" not in meta


def test_bound_ratio_and_constant_print_the_exact_digits():
    # B(49,533) / (49,533 ln ln 49,533) = 82.26091882204999..., which the
    # float quotient printed as 82.2609188221
    args = ["bound", "--d-min", "49533", "--d-max", "49533", "--format", "json"]
    envelope = json.loads(invoke(args).stdout)
    assert envelope["rows"][0]["ratio"] == envelope["meta"]["constant"]["value"] == 82.260918822


def test_bound_stdout_is_deterministic():
    args = [sys.executable, "-m", "tcm", "bound", "--d-min", "3", "--d-max", "100", "--format", "json"]
    first, second = (subprocess.run(args, capture_output=True, check=True) for _ in range(2))
    assert first.stdout == second.stdout


def test_bound_range_json_peak_rss_is_not_set_by_the_rows():
    # 10^5 rows held as records, row dicts and one JSON string took 179 MB;
    # expanded from the runs as they are written, the rows hold one at a time
    argv = [sys.executable, "-m", "tcm", "bound", "--d-min", "3", "--d-max", "100000", "--format", "json"]
    assert child_peak_rss(argv) < 100 * 2**20


def test_bound_single_degree_peak_rss_is_set_by_the_search():
    # the whole int32 totient table of n_max(10^5) = 22,561,035 would be
    # 86 MiB alone; the prime-set search holds no table, and the command
    # loads no numpy
    for d in (10**5, 10**6):
        argv = [sys.executable, "-m", "tcm", "bound", "--d-min", str(d), "--d-max", str(d), "--format", "csv"]
        assert child_peak_rss(argv) < 40 * 2**20, d


def test_product_peak_rss_at_a_discriminant_far_above_x():
    # chi is read from a table over x + 1 residues, not over a period of
    # |D| = 10^11 + 3, and the primes from a sieve of x / 2 bytes
    argv = [sys.executable, "-m", "tcm", "analytics", "product", "--disc=-100000000003", "--x", "1000000"]
    assert child_peak_rss(argv) < 100 * 2**20


def test_scan_peak_rss_is_set_by_the_search_and_count():
    # the whole int32 table of the norms up to 10^7 would be 38 MiB alone;
    # the search and the recursions over x // k hold no table of the norms
    argv = [sys.executable, "-m", "tcm", "analytics", "scan", "--disc", "-4", "--x", "10000000", "--format", "csv"]
    assert child_peak_rss(argv) < 60 * 2**20


def test_cli_import_loads_no_process_pool():
    # every command starts a fresh interpreter, so tcm.cli's imports are paid per run
    code = (
        "import sys, tcm.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("ran past the memory pre-flight")


def test_bound_preflight_refuses_before_allocating(monkeypatch):
    # every request is charged the writer's 256 KiB, so a budget below it refuses
    monkeypatch.setattr(cli_mod, "memory_budget", lambda: cli_mod.WRITE_BYTES - 1)
    monkeypatch.setattr(cli_mod, "bound_records", _refuse_to_run)
    result = invoke(["bound", "--d-min", "1", "--d-max", "1000000"])
    assert result.exit_code == 2
    assert "n_max = 237662443" in result.stderr
    assert "needs an estimated 256 KiB, over the budget of 255 KiB" in result.stderr
    assert result.stdout == ""


def test_bound_preflight_passes_small_requests(monkeypatch):
    monkeypatch.setattr(cli_mod, "memory_budget", lambda: 64 * 2**20)
    assert invoke(["bound", "--d-min", "1", "--d-max", "2000"]).exit_code == 0


def traced_command_peak(args: list[str]) -> int:
    """Peak bytes tracemalloc sees while one command runs, its stdout to /dev/null."""
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        tracemalloc.start()
        try:
            cli_mod.main(args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.stdout = stdout


_LARGE_REQUESTS = [(3 * 10**5, 3 * 10**5, "csv"), (299_000, 3 * 10**5, "json"), (10**6, 10**6, "table"), (999_000, 10**6, "json")]
_SMALL_RANGES = [(1, 1), (3, 2000), (10**4, 10**4)]


def charged_and_peak(monkeypatch, d_min, d_max, fmt) -> tuple[int, int]:
    """The pre-flight's estimate for one bound command, and its traced peak."""
    charged = []
    monkeypatch.setattr(cli_mod, "preflight", lambda what, estimate: charged.append(estimate))
    peak = traced_command_peak(["bound", "--d-min", str(d_min), "--d-max", str(d_max), "--format", fmt])
    (estimate,) = charged
    return estimate, peak


@pytest.mark.parametrize("d_min,d_max,fmt", _LARGE_REQUESTS)
def test_bound_preflight_bounds_measured_peak(monkeypatch, d_min, d_max, fmt):
    # the region is three counts and the search a few hundred runs, so the
    # writer's constant covers the largest degrees too
    estimate, peak = charged_and_peak(monkeypatch, d_min, d_max, fmt)
    assert peak <= estimate


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_bound_preflight_covers_small_requests(monkeypatch, fmt):
    for d_min, d_max in _SMALL_RANGES:
        estimate, peak = charged_and_peak(monkeypatch, d_min, d_max, fmt)
        assert peak <= estimate, (d_min, d_max)


def test_bound_preflight_is_at_most_twice_the_largest_peak(monkeypatch):
    # the estimate is one constant, checked from above by the largest traced
    # peak over both grids: csv's record buffer at d = 1, about 139 KB
    grid = _LARGE_REQUESTS + [(*r, fmt) for r in _SMALL_RANGES for fmt in ("json", "csv", "table")]
    peaks = [charged_and_peak(monkeypatch, *args)[1] for args in grid]
    assert cli_mod.WRITE_BYTES <= 2 * max(peaks)


def test_bound_builds_the_sweep_region_once(monkeypatch):
    # the pre-flight's message and the meta share one region, and the search reads none
    built = []

    def counting(d_max):
        built.append(d_max)
        return sweep_region(d_max)

    monkeypatch.setattr(cli_mod, "sweep_region", counting)
    monkeypatch.setattr(feasibility, "sweep_region", _refuse_to_run)
    assert invoke(["bound", "--d-min", "3", "--d-max", "50"]).exit_code == 0
    assert built == [50]


@pytest.mark.parametrize(
    "args,fn",
    [
        (["mertens", "--x", str(10**12)], "mertens_product"),
        (["product", "--disc", "-4", "--x", str(10**12)], "char_euler_product"),
    ],
)
def test_analytics_preflight_refuses_before_allocating(monkeypatch, args, fn):
    monkeypatch.setattr(cli_mod, "memory_budget", lambda: 64 * 2**20)
    monkeypatch.setattr(cli_mod, fn, _refuse_to_run)
    result = invoke(["analytics", *args])
    assert result.exit_code == 2
    assert f"primes up to x = {10**12}" in result.stderr


def test_product_preflight_counts_the_character_table(monkeypatch):
    # at x = 10^6 the prime sieve is charged 0.7 MiB; chi's table over
    # min(|D|, x + 1) residues adds 16 B for -4 and 3.8 MiB for -1000003
    monkeypatch.setattr(cli_mod, "memory_budget", lambda: 2 * 2**20)
    monkeypatch.setattr(cli_mod, "char_euler_product", _refuse_to_run)
    result = invoke(["analytics", "product", "--disc", "-1000003", "--x", str(10**6)])
    assert result.exit_code == 2
    assert "the character mod 1000003 needs an estimated 5 MiB, over the budget of 2 MiB" in result.stderr
    with pytest.raises(AssertionError, match="ran past the memory pre-flight"):
        invoke(["analytics", "product", "--disc", "-4", "--x", str(10**6)], catch_exceptions=False)


def test_product_runs_at_a_discriminant_far_above_x():
    # a table over a period of |D| = 10^11 + 3 would need 466 GiB; chi is
    # read over x + 1 residues
    args = ["analytics", "product", "--disc=-100000000003", "--x", "100", "--format", "json"]
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
    row = json.loads(result.stdout)["rows"][0]
    primes = [p for p in range(2, 101) if trial_factor(p) == [(p, 1)]]
    exact = Fraction(1)
    for p in primes:
        exact *= Fraction(p - kronecker(-100000000003, p), p)
    with localcontext() as ctx:
        ctx.prec = 50
        assert row["value"] == float(f"{Decimal(exact.numerator) / exact.denominator:.12g}")
    assert row["terms"] == len(primes) == 25


@pytest.mark.parametrize(
    "args",
    [
        ["phi", "--disc", "-4", "--n", str(cli_mod.FACTOR_MAX + 1)],
        ["phi", "--disc", str(-cli_mod.FACTOR_MAX - 3), "--n", "5"],
        ["galois", "--disc", str(-cli_mod.FACTOR_MAX - 3), "--n", "5"],
        ["analytics", "scan", "--disc", str(-cli_mod.FACTOR_MAX - 3), "--x", "100"],
        ["analytics", "product", "--disc", str(-cli_mod.FACTOR_MAX - 3), "--x", "100"],
    ],
)
def test_factoring_bound_refuses_before_factoring(monkeypatch, args):
    import tcm.ideal_arith
    import tcm.primes

    monkeypatch.setattr(tcm.primes, "factorize", _refuse_to_run)
    monkeypatch.setattr(tcm.ideal_arith, "factorize", _refuse_to_run)
    result = invoke(args)
    assert result.exit_code == 2
    assert "over the factoring bound" in result.stderr
    assert result.stdout == ""


def test_landau_refuses_a_class_number_over_its_bound(monkeypatch):
    # the form count is O(|D|): 5 s at 10^9 + 7, so 10^9 + 7 is refused at once
    monkeypatch.setattr(cli_mod, "landau_liminf_check", _refuse_to_run)
    result = invoke(["analytics", "landau", "--disc", "-1000000007", "--x", "100"])
    assert result.exit_code == 2
    assert "|--disc| = 1000000007 is over the class-number bound 1,000,000,000" in result.stderr
    assert result.stdout == ""


def test_factoring_bound_admits_its_limit():
    args = ["phi", "--disc", "-4", "--n", str(cli_mod.FACTOR_MAX), "--format", "csv"]
    result = invoke(args)
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1].startswith(f"-4,{cli_mod.FACTOR_MAX},")


@pytest.mark.parametrize(
    "command,fn", [("scan", "phi_bound_scan"), ("landau", "landau_liminf_check")]
)
def test_scan_preflight_refuses_before_allocating(monkeypatch, command, fn):
    monkeypatch.setattr(cli_mod, "memory_budget", lambda: 64 * 2**20)
    monkeypatch.setattr(cli_mod, fn, _refuse_to_run)
    # chi over min(|D|, x + 1) residues is charged, 4 B each: 392 MiB
    # here, where D = -4 at the same x costs 10 MiB
    args = ["analytics", command, "--disc", "-100000007", "--x", str(10**9)]
    result = invoke(args)
    assert result.exit_code == 2
    assert f"norm search and count up to x = {10**9}" in result.stderr
    assert "needs an estimated 392 MiB, over the budget of 64 MiB" in result.stderr
    assert result.stdout == ""


def test_scan_runs_at_a_discriminant_far_above_x():
    # chi is read over n <= x, not over a period of |D| = 10^11 + 3
    args = ["analytics", "scan", "--disc=-100000000003", "--x", "100", "--format", "json"]
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
    row = json.loads(result.stdout)["rows"][0]
    value, ideal = oracle_scan(-100000000003, 100, 3)
    assert row["min_value"] == float(f"{value:.12g}")
    assert row["argmin_ideal"] == str(ideal)


@pytest.mark.parametrize("command", ["scan", "landau"])
def test_scan_preflight_passes_small_requests(monkeypatch, command):
    monkeypatch.setattr(cli_mod, "memory_budget", lambda: 64 * 2**20)
    result = invoke(["analytics", command, "--disc", "-4", "--x", str(10**5)])
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "command,options",
    [
        (["bound"], [["--d-min", "3"], ["--d-max", "40"]]),
        (["phi"], [["--disc", "-4"], ["--n", "5"]]),
        (["galois"], [["--disc", "-4"], ["--p", "3"], ["--a", "1"], ["--b", "1"]]),
        (["analytics", "scan"], [["--disc", "-4"], ["--x", "100"]]),
    ],
    ids=["bound", "phi", "galois", "scan"],
)
def test_option_order_does_not_change_stdout(command, options):
    # params echo the declared order, not the order the options were typed in
    outputs = {
        invoke([*command, *itertools.chain(*order)]).stdout
        for order in itertools.permutations([*options, ["--format", "json"]])
    }
    (stdout,) = outputs
    assert json.loads(stdout)["rows"]


def test_serialization_failure_exits_three(monkeypatch):
    def broken(*args):
        raise TypeError("unserializable")

    monkeypatch.setattr(cli_mod, "serialize_json", broken)
    result = invoke(["bound", "--d-min", "1", "--d-max", "1", "--format", "json"])
    assert result.exit_code == 3
    assert "serialization failed" in result.stderr


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_serialization_failure_after_the_first_row_exits_three(monkeypatch, fmt):
    # rows are written as they are formatted: stdout keeps what came before the failure
    class FailingRows(BoundRows):
        def __iter__(self):
            rows = super().__iter__()
            yield next(rows)
            raise TypeError("unserializable")

    args = ["bound", "--d-min", "1", "--d-max", "3", "--format", fmt]
    full = invoke(args).stdout
    monkeypatch.setattr(cli_mod, "BoundRows", FailingRows)
    result = invoke(args)
    assert result.exit_code == 3
    assert "serialization failed: unserializable" in result.stderr
    assert full.startswith(result.stdout)
    if fmt == "json":
        assert '"rows": [\n    {\n      "d": 1,' in result.stdout
        assert '"d": 2' not in result.stdout
    elif fmt == "csv":
        assert result.stdout == "d,a,b,bound,ratio\n1,1,60,60,\n"
    else:  # the first pass, for the column widths, fails before any line is written
        assert result.stdout == ""


# ---------------------------------------------------------------------- phi


def test_phi_command():
    result = invoke(["phi", "--disc", "-4", "--n", "5", "--format", "json"])
    assert result.exit_code == 0
    (row,) = json.loads(result.stdout)["rows"]
    assert row == {
        "disc": -4,
        "n": 5,
        "phi": 16,
        "norm": 25,
        "factorization": "P5.0*P5.1",
        "brute_force": 16,
        "agree": True,
    }


def test_phi_unit_ideal():
    result = invoke(["phi", "--disc", "-4", "--n", "1", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["phi"] == 1 and row["norm"] == 1


def test_phi_skips_brute_force_above_cap():
    for n in (500, 301):
        result = invoke(["phi", "--disc", "-4", "--n", str(n), "--format", "json"])
        (row,) = json.loads(result.stdout)["rows"]
        assert row["brute_force"] is None and row["agree"] is None, n
    # the cap itself is still counted
    result = invoke(["phi", "--disc", "-4", "--n", "300", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["brute_force"] == row["phi"] and row["agree"] is True


def test_phi_rejects_nonfundamental():
    for disc, message in [
        ("-12", "-12 is not a fundamental discriminant"),
        ("-14", "discriminant must be 0 or 1 mod 4, got -14"),
        ("5", "discriminant must be negative, got 5"),
    ]:
        result = invoke(["phi", "--disc", disc, "--n", "5"])
        assert result.exit_code == 2
        assert result.stderr.rstrip().splitlines()[-1] == f"Error: {message}"


def test_phi_rejects_n_below_one():
    result = invoke(["phi", "--disc", "-4", "--n", "0"])
    assert result.exit_code == 2
    assert result.stderr.rstrip().splitlines()[-1] == "Error: need n >= 1, got 0"
    # the discriminant is checked first
    result = invoke(["phi", "--disc", "-12", "--n", "0"])
    assert result.stderr.rstrip().splitlines()[-1] == "Error: -12 is not a fundamental discriminant"


@pytest.mark.parametrize(
    "args,times",
    [
        (["phi", "--disc", "-23", "--n", "5"], 1),
        (["phi", "--disc", "-23", "--n", "23"], 2),  # once as |D|, once as n
        (["galois", "--disc", "-23", "--n", "5"], 1),
    ],
    ids=["phi", "phi-n-equals-disc", "galois-n"],
)
def test_disc_is_factored_once(monkeypatch, args, times):
    import tcm.ideal_arith
    import tcm.primes
    import tcm.quad_core

    factored = []
    factorize = tcm.primes.factorize

    def counting(n):
        factored.append(n)
        return factorize(n)

    # quad_core factors through primes.squarefree
    for module in (tcm.primes, tcm.ideal_arith):
        monkeypatch.setattr(module, "factorize", counting)
    tcm.quad_core.is_fundamental.cache_clear()  # an earlier test may have validated -23
    result = invoke(args)
    assert result.exit_code == 0
    assert factored.count(23) == times


# -------------------------------------------------------------------- galois


def test_galois_kernel_mode():
    result = invoke(
        ["galois", "--disc", "-4", "--p", "3", "--a", "1", "--b", "1", "--format", "json"]
    )
    assert result.exit_code == 0
    envelope = json.loads(result.stdout)
    assert envelope["params"] == {"disc": -4, "p": 3, "A": 1, "B": 1, "format": "json"}
    assert envelope["rows"] == [
        {
            "disc": -4,
            "p": 3,
            "A": 1,
            "B": 1,
            "kernel_size": 9,
            "expected": 9,
            "surjective": True,
        }
    ]


def test_galois_stabilizer_mode():
    result = invoke(["galois", "--disc", "-7", "--p", "5", "--a", "0", "--format", "json"])
    assert result.exit_code == 0
    envelope = json.loads(result.stdout)
    assert envelope["params"] == {"disc": -7, "p": 5, "A": 0, "format": "json"}
    assert envelope["rows"] == [
        {
            "disc": -7,
            "p": 5,
            "A": 0,
            "split_type": "inert",
            "max_stabilizer_order": 1,
            "expected_divisor": 1,
            "divides": True,
        }
    ]


@pytest.mark.parametrize(
    "d,p,kind,order", [(-7, 197, "split", 196), (-4, 199, "inert", 1)]
)
def test_galois_stabilizer_mode_at_the_cap(d, p, kind, order):
    result = invoke(["galois", "--disc", str(d), "--p", str(p), "--a", "0", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["split_type"] == kind
    assert row["max_stabilizer_order"] == order
    assert row["divides"]


@pytest.mark.parametrize("extra", [["--a", "1", "--b", "1"], ["--a", "0"]])
def test_galois_rejects_composite_level(extra):
    result = invoke(["galois", "--disc", "-4", "--p", "4", *extra])
    assert result.exit_code == 2
    assert "4 is not prime" in result.stderr


def test_galois_group_order_mode():
    result = invoke(["galois", "--disc", "-4", "--n", "10", "--format", "json"])
    assert result.exit_code == 0
    envelope = json.loads(result.stdout)
    assert envelope["params"] == {"disc": -4, "n": 10, "format": "json"}
    assert envelope["rows"] == [
        {
            "disc": -4,
            "n": 10,
            "order": 32,
            "brute_force": 32,
            "agree": True,
            "homotheties": True,
        }
    ]


@pytest.mark.parametrize("n", [1, 0])
def test_galois_group_order_mode_needs_n_at_least_two(n):
    result = invoke(["galois", "--disc", "-4", "--n", str(n)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.rstrip().splitlines()[-1] == f"Error: need n >= 2, got {n}"


def test_galois_cap_violation_names_the_cap():
    result = invoke(["galois", "--disc", "-4", "--n", "1000"])
    assert result.exit_code == 2
    assert "cap 200" in result.stderr


@pytest.mark.parametrize("extra", [["--a", "30000000", "--b", "1"], ["--a", "30000000"]])
def test_galois_refuses_a_huge_level_before_building_it(extra):
    # 3**30000001 has 14 million digits: building it, or printing it in the
    # message, would take seconds and trip the int-to-str digit limit
    result = invoke(["galois", "--disc", "-4", "--p", "3", *extra])
    assert result.exit_code == 2
    assert "cap 200" in result.stderr


def test_galois_requires_a_mode():
    assert invoke(["galois", "--disc", "-4"]).exit_code == 2


@pytest.mark.parametrize(
    "extra", [["--p", "3"], ["--a", "1"], ["--b", "2"], ["--p", "3", "--b", "2"]]
)
def test_galois_refuses_mixed_modes(extra):
    # --n runs the group-order mode, which would drop --p, --a and --b unread
    result = invoke(["galois", "--disc", "-8", "--n", "12", *extra])
    assert result.exit_code == 2
    assert "need either --n, or --p with --a" in result.stderr
    assert result.stdout == ""


# ----------------------------------------------------------------- analytics


def test_analytics_mertens():
    result = invoke(["analytics", "mertens", "--x", "10", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["terms"] == 4
    assert row["value"] == pytest.approx(8 / 35, rel=1e-11)


def test_analytics_product_trivial():
    result = invoke(["analytics", "product", "--disc", "-4", "--x", "2", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["value"] == 1.0


def test_analytics_scan():
    result = invoke(["analytics", "scan", "--disc", "-4", "--x", "100", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["min_value"] > 0
    assert row["argmin_norm"] >= 3


def test_analytics_scan_meta_records_the_window():
    args = ["analytics", "scan", "--disc", "-4", "--x", "100", "--format", "json"]
    envelope = json.loads(invoke(args).stdout)
    assert envelope["meta"]["window"] == [3, 100]
    assert envelope["meta"]["norms"] == 41
    assert envelope["rows"] == [
        {"disc": -4, "x": 100, "min_value": 0.163317129989, "argmin_norm": 4, "argmin_ideal": "P2^2"}
    ]
    args = ["analytics", "landau", "--disc", "-4", "--x", "100", "--format", "json"]
    meta = json.loads(invoke(args).stdout)["meta"]
    assert meta["window"] == [10, 100]
    assert meta["norms"] == sum(1 for n in range(10, 101) if ideal_count_oracle(-4, n))


def test_analytics_landau():
    result = invoke(["analytics", "landau", "--disc", "-4", "--x", "200", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["empirical_min_tail"] > 0 and row["target"] > 0


def test_analytics_floats_carry_twelve_significant_digits():
    result = invoke(["analytics", "mertens", "--x", "1000", "--format", "json"])
    (row,) = json.loads(result.stdout)["rows"]
    assert row["value"] == float(f"{row['value']:.12g}")



# ------------------------------------------------------------ the CLI surface
# Recorded from the click-based CLI this parser replaced, with prog "cli" and
# help wrapped at 78 columns (a terminal of 80 or more, or a pipe).

ROOT_HELP = """\
Usage: cli [OPTIONS] COMMAND [ARGS]...

  Explicit per-degree bounds on CM elliptic-curve torsion, plus the exact and
  analytic machinery behind them.

Options:
  --version  Show the version and exit.
  --help     Show this message and exit.

Commands:
  analytics  Product estimates and empirical constant scans.
  bound      Per-degree torsion bounds B(d) with maximizing shapes.
  galois     Unit-group scans: group orders, reduction kernels, point...
  phi        Ideal Euler function of (n), with brute-force cross-check...
"""

ANALYTICS_HELP = """\
Usage: cli analytics [OPTIONS] COMMAND [ARGS]...

  Product estimates and empirical constant scans.

Options:
  --help  Show this message and exit.

Commands:
  landau   Tail minimum of phi_K(a) loglog|a| / |a| against e^-gamma /...
  mertens  Product of (1 - 1/p) over primes p <= x.
  product  Character Euler product of (1 - chi(p)/p) over primes p <= x.
  scan     Minimum of phi_K(c) loglog|c| / |c| over ideals with 3 <= |c|...
"""

BOUND_HELP = """\
Usage: cli bound [OPTIONS]

  Per-degree torsion bounds B(d) with maximizing shapes.

Options:
  --d-min INTEGER            Smallest degree.  [required]
  --d-max INTEGER            Largest degree.  [required]
  --format [json|csv|table]  Output format for data rows.  [default: table]
  --help                     Show this message and exit.
"""

ROOT_ERROR = "Usage: cli [OPTIONS] COMMAND [ARGS]...\nTry 'cli --help' for help.\n\nError: "
BOUND_ERROR = "Usage: cli bound [OPTIONS]\nTry 'cli bound --help' for help.\n\nError: "
BOUND_3_CSV = "d,a,b,bound,ratio\n3,1,240,240,850.631024951\n"
BOUND_3_NOTE = "running constant over d in [3, 3]: 850.631024951 at d=3\n"

# (args, exit code, stdout, stderr)
SURFACE = [
    ([], 2, "", ROOT_HELP),
    (["--help"], 0, ROOT_HELP, ""),
    (["analytics"], 2, "", ANALYTICS_HELP),
    (["analytics", "--help"], 0, ANALYTICS_HELP, ""),
    (["--version"], 0, "tcm, version 0.1.0\n", ""),
    (["--version", "--help"], 0, "tcm, version 0.1.0\n", ""),
    (["--help", "--version"], 0, ROOT_HELP, ""),
    (["bound", "--d-max", "5"], 2, "", BOUND_ERROR + "Missing option '--d-min'.\n"),
    (["bound", "--d-min", "x", "--d-max", "5"], 2, "", BOUND_ERROR + "Invalid value for '--d-min': 'x' is not a valid integer.\n"),
    (["bound", "--d-max", "x", "--d-min", "y"], 2, "", BOUND_ERROR + "Invalid value for '--d-max': 'x' is not a valid integer.\n"),
    (
        ["bound", "--d-min", "1", "--d-max", "2", "--format", "xml"],
        2,
        "",
        BOUND_ERROR + "Invalid value for '--format': 'xml' is not one of 'json', 'csv', 'table'.\n",
    ),
    (
        ["bound", "--d-min", "1", "--d-max", "2", "--frmat", "csv"],
        2,
        "",
        BOUND_ERROR + "No such option '--frmat'. Did you mean '--format'?\n",
    ),
    (["bound", "-x", "1"], 2, "", BOUND_ERROR + "No such option '-x'.\n"),
    (["bound", "--version"], 2, "", BOUND_ERROR + "No such option '--version'.\n"),
    (["bound", "--d-min"], 2, "", "Error: Option '--d-min' requires an argument.\n"),
    (["bound", "--help=1"], 2, "", "Error: Option '--help' does not take a value.\n"),
    (["bound", "--d-min", "x", "--help"], 0, BOUND_HELP, ""),
    (["bonud"], 2, "", ROOT_ERROR + "No such command 'bonud'. Did you mean 'bound'?\n"),
    (["--format", "csv"], 2, "", ROOT_ERROR + "No such option '--format'.\n"),
    (["--"], 2, "", ROOT_ERROR + "Missing command.\n"),
    (
        ["analytics", "scna"],
        2,
        "",
        "Usage: cli analytics [OPTIONS] COMMAND [ARGS]...\nTry 'cli analytics --help' for help.\n\n"
        "Error: No such command 'scna'. Did you mean 'scan'?\n",
    ),
    (["bound", "--d-min", "1", "--d-max", "2", "extra"], 2, "", BOUND_ERROR + "Got unexpected extra argument (extra)\n"),
    (["bound", "--d-min", "1", "--d-max", "2", "a", "b"], 2, "", BOUND_ERROR + "Got unexpected extra arguments (a b)\n"),
    (
        ["bound", "--d-min", "1", "--d-max", "2", "--", "--format"],
        2,
        "",
        BOUND_ERROR + "Got unexpected extra argument (--format)\n",
    ),
    (["bound", "--d-min=3", "--d-max", "3", "--format", "csv"], 0, BOUND_3_CSV, BOUND_3_NOTE),
    (["bound", "--d-min", "3", "--d-max", "3", "--format=csv"], 0, BOUND_3_CSV, BOUND_3_NOTE),
    (["--", "bound", "--d-min", "1", "--d-min", "3", "--d-max", "3", "--format", "csv"], 0, BOUND_3_CSV, BOUND_3_NOTE),
    (
        ["phi", "--disc=-4", "--n", "5", "--format", "csv"],
        0,
        "disc,n,phi,norm,factorization,brute_force,agree\n-4,5,16,25,P5.0*P5.1,16,True\n",
        "",
    ),
]


@pytest.mark.parametrize("args,code,stdout,stderr", SURFACE, ids=[" ".join(case[0]) or "(none)" for case in SURFACE])
def test_cli_surface_is_pinned(args, code, stdout, stderr):
    assert invoke(args) == (code, stdout, stderr)


def test_prog_name_is_python_m_tcm_as_a_module():
    # and a terminal of 52 columns wraps help at 50, with a usage line too
    # long for one line split after the command path
    env = {**os.environ, "COLUMNS": "52"}
    argv = [sys.executable, "-m", "tcm", "analytics", "scan", "--disc", "-4"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "Usage: python -m tcm analytics scan \n"
        "           [OPTIONS]\n"
        "Try 'python -m tcm analytics scan --help' for help.\n\n"
        "Error: Missing option '--x'.\n"
    )
    result = subprocess.run([sys.executable, "-m", "tcm", "bound", "--help"], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (
        "Usage: python -m tcm bound [OPTIONS]\n\n"
        "  Per-degree torsion bounds B(d) with maximizing\n"
        "  shapes.\n\n"
        "Options:\n"
        "  --d-min INTEGER            Smallest degree.\n"
        "                             [required]\n"
        "  --d-max INTEGER            Largest degree.\n"
        "                             [required]\n"
        "  --format [json|csv|table]  Output format for\n"
        "                             data rows.  [default:\n"
        "                             table]\n"
        "  --help                     Show this message and\n"
        "                             exit.\n"
    )


def test_closed_pipe_exits_one_quietly():
    # as `tcm bound --d-min 3 --d-max 300000 --format csv | head -1`: the
    # rows outgrow the pipe, its reader leaves, and stderr keeps only the note
    argv = [sys.executable, "-m", "tcm", "bound", "--d-min", "3", "--d-max", "300000", "--format", "csv"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"d,a,b,bound,ratio\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == b"running constant over d in [3, 300000]: 850.631024951 at d=3\n"
