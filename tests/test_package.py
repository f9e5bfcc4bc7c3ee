import ast
import copy
import enum
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tcm

from conftest import invoke


def test_import_tcm_loads_no_submodule():
    # names are imported from their modules; the package holds only the version
    probe = (
        "import sys, tcm; "
        "print(sorted(m for m in sys.modules if m.startswith('tcm.')), tcm.__version__)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "[] 0.1.0\n"


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(tcm.__path__):
        if info.name == "__main__":  # importing it runs the command
            continue
        module = importlib.import_module(f"tcm.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(tcm.__file__).resolve().parent


def _read_names(node: ast.AST) -> set[str]:
    """Names node loads (as a name or an attribute) or imports by name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defined_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0] for alias in stmt.names}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_all_entry_has_a_reader():
    # a public name is read by another module of the package, by its own
    # module outside its definition, or by the benchmark; tests do not count
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = set().union(*(_read_names(ast.parse(p.read_text())) for p in BENCH.glob("*.py")))
    checked = 0
    for name, tree in trees.items():
        public = [
            entry
            for stmt in tree.body
            if "__all__" in _defined_names(stmt)
            for entry in ast.literal_eval(stmt.value)
        ]
        elsewhere = bench.union(*(_read_names(t) for other, t in trees.items() if other != name))
        for entry in public:
            own = set().union(*(_read_names(s) for s in tree.body if entry not in _defined_names(s)))
            assert entry in elsewhere or entry in own, f"{name}.{entry} has no reader"
            checked += 1
    assert checked > 0


def test_bench_imports_resolve():
    # parsed, not imported: the benchmark's files stay as they are
    imported = 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] != "tcm":
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    imported += 1
    assert imported > 0


def _cli_boundary() -> list[str]:
    tree = ast.parse((BENCH / "child.py").read_text())
    (boundary,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_BOUNDARY" for t in node.targets)
    ]
    return list(ast.literal_eval(boundary))


def test_bench_cli_boundary_names_resolve():
    import tcm.cli

    names = _cli_boundary()
    assert names
    for name in names:
        assert hasattr(tcm.cli, name), name


# one command per library call the benchmark wraps; each command also calls emit
BOUNDARY_COMMANDS = {
    "bound_records": ["bound", "--d-min", "1", "--d-max", "3"],
    "phi_bound_scan": ["analytics", "scan", "--disc", "-4", "--x", "100"],
    "landau_liminf_check": ["analytics", "landau", "--disc", "-4", "--x", "100"],
    "mertens_product": ["analytics", "mertens", "--x", "100"],
    "char_euler_product": ["analytics", "product", "--disc", "-4", "--x", "100"],
}


@pytest.mark.parametrize("called", list(BOUNDARY_COMMANDS))
def test_bench_cli_boundary_wrappers_intercept(monkeypatch, called):
    # the benchmark times these calls by setattr on tcm.cli; a command that
    # reached them through a closure or a second reference would record no span
    import tcm.cli

    names = _cli_boundary()
    assert set(names) == {*BOUNDARY_COMMANDS, "emit"}
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(tcm.cli, name, counting(name, getattr(tcm.cli, name)))
    result = invoke(BOUNDARY_COMMANDS[called])
    assert result.exit_code == 0, result.stderr
    assert calls == {name: int(name in (called, "emit")) for name in names}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_bench_spans_see_one_sweep_and_one_streamed_emit(monkeypatch, fmt):
    # rows are expanded from the runs inside emit; the benchmark's spans
    # still time one bound_records call and one emit call per tcm bound
    import tcm.cli

    wrapped = [name for name in _cli_boundary() if name in ("bound_records", "emit")]
    assert sorted(wrapped) == ["bound_records", "emit"]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in wrapped:
        monkeypatch.setattr(tcm.cli, name, counting(name, getattr(tcm.cli, name)))
    args = ["bound", "--d-min", "3", "--d-max", "2548", "--format", fmt]
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
    assert calls == ["bound_records", "emit"]


def test_import_cli_loads_no_dataclasses():
    # records are NamedTuples: importing the CLI runs no dataclass code generation
    probe = "import sys, tcm.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_import_cli_and_bound_load_no_click_nor_its_imports():
    # commands are one table and one parser loop: click, and what it pulls
    # in, cost every run about 30 ms; textwrap and difflib load only to
    # render help and "Did you mean" suggestions
    unwanted = {"argparse", "click", "datetime", "difflib", "inspect", "textwrap", "uuid"}
    probe = f"import sys, tcm.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
    argv = [sys.executable, "-X", "importtime", "-m", "tcm", "bound", "--d-min", "3", "--d-max", "50"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    loaded = {line.rpartition("|")[2].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert {"tcm.cli", "tcm.feasibility"} <= loaded
    assert not loaded & {"csv", "json"}  # only the csv and json formats load them
    assert not loaded & unwanted


@pytest.mark.parametrize(
    "args,wanted",
    [
        (["--version"], False),
        (["bound", "--d-min", "3", "--d-max", "50", "--format", "table"], False),
        (["bound", "--d-min", "3", "--d-max", "50", "--format", "csv"], False),
        (["bound", "--d-min", "3", "--d-max", "50", "--format", "json"], True),
    ],
    ids=["version", "table", "csv", "json"],
)
def test_only_the_json_writer_loads_json(args, wanted):
    # json and its encoder cost every run about 2 ms at import, and only
    # the json writer uses them
    argv = [sys.executable, "-X", "importtime", "-m", "tcm", *args]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    loaded = {line.rpartition("|")[2].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert "tcm.cli" in loaded
    assert ("json" in loaded) == wanted


def test_import_cli_and_bound_load_no_numpy():
    # numpy's import is about half of a short command's time; bound and
    # --version need none of it, and only the other commands load it
    probe = (
        "import os, sys, tcm.cli\n"
        "print('numpy' in sys.modules)\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "tcm.cli.main(['bound', '--d-min', '3', '--d-max', '2000', '--format', 'json'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
    assert out.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["scan", "landau", "mertens", "product"])
def test_scan_and_landau_load_no_numpy(command):
    # the window minimum is a search over prime sets and the norm count a
    # recursion over x // k; the two products sum over a bytearray prime
    # sieve; so no analytics command loads numpy
    args = ["analytics", command, *(["--disc", "-84"] if command != "mertens" else []), "--x", "10000"]
    probe = (
        "import os, sys, tcm.cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"tcm.cli.main({args!r})\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stderr == "False\n"


def _loaded_by(args: list[str], names: tuple[str, ...]) -> list[str]:
    """Which of names are in sys.modules after tcm.cli.main(args), stdout discarded."""
    probe = (
        "import os, sys, tcm.cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"tcm.cli.main({args!r})\n"
        f"print(sorted(set({names!r}) & set(sys.modules)), file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stderr.splitlines()[-1])


@pytest.mark.parametrize("command", ["scan", "landau", "mertens", "product"])
def test_analytics_commands_load_no_decimal_csv_nor_feasibility(command):
    # decimal serves only the rare exact fallback of a certified digit, csv
    # only the csv format, and feasibility only tcm bound
    args = ["analytics", command, *(["--disc", "-84"] if command != "mertens" else []), "--x", "10000"]
    assert _loaded_by(args, ("decimal", "csv", "tcm.feasibility")) == []


def test_version_loads_no_csv_nor_feasibility():
    assert _loaded_by(["--version"], ("csv", "tcm.feasibility", "tcm.analytics")) == []


def test_product_on_the_exact_path_loads_decimal():
    # at D = -4 and x = 2531 a 12-digit rounding boundary lies within the
    # product's error bound, so its digits come from the 50-digit product
    args = ["analytics", "product", "--disc", "-4", "--x", "2531"]
    assert _loaded_by(args, ("decimal", "csv")) == ["decimal"]


def test_commands_and_library_run_without_numpy(tmp_path):
    # tcm depends on the standard library alone: with numpy unimportable,
    # every README command runs in each format, h(D) both ways, phi_K, the
    # degree sandwich, the refined rows and the totient table are computed,
    # and phi --n 1009 skips the residue-ring scan that --n 5 checks
    from conftest import norm_sieve
    from test_cli_golden import README_COMMANDS

    commands = [[*args, "--format", fmt] for args in README_COMMANDS for fmt in ("table", "json", "csv")]
    table = tmp_path / "phi.bin"
    probe = (
        "import io, json, os, sys\n"
        "sys.modules['numpy'] = None\n"
        "import tcm.cli\n"
        "from tcm.feasibility import chain_audit, refined_table\n"
        "from tcm.ideal_arith import min_phi_ideal, phi_K, phi_K_of_N, principal_ideal\n"
        "from tcm.primes import phi_sieve\n"
        "from tcm.quad_core import class_number, class_number_dirichlet, fundamental_discriminants, kronecker, splitting_type\n"
        "from tcm.ray_class_bounds import degree_bounds\n"
        "class_number(-9748), class_number_dirichlet(-9748), kronecker(-84, 101), splitting_type(-84, 7)\n"
        "phi_K(principal_ideal(-84, 360)), phi_K_of_N(-84, 360), min_phi_ideal(-84, 7 * 25)\n"
        "degree_bounds(-84, principal_ideal(-84, 360)), fundamental_discriminants(10**4)\n"
        "row = refined_table(6, 100)[0]\n"
        "chain_audit(6, row.disc, row.a, row.b)\n"
        f"with open({str(table)!r}, 'wb') as f:\n"
        "    phi_sieve(612_546).tofile(f)\n"
        "stdout, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        f"for args in {commands!r} + [['phi', '--disc', '-4', '--n', '1009']]:\n"
        "    tcm.cli.main(args)\n"
        "sys.stdout = io.StringIO()\n"
        "tcm.cli.main(['phi', '--disc', '-4', '--n', '5', '--format', 'json'])\n"
        "row = json.loads(sys.stdout.getvalue())['rows'][0]\n"
        "print(row['brute_force'], row['agree'], file=stdout)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "16 True\n"
    import numpy as np

    assert np.array_equal(np.fromfile(table, dtype=np.int32), norm_sieve(612_546))


@pytest.mark.parametrize(
    "args",
    [
        ["galois", "--disc", "-4", "--n", "200"],
        ["galois", "--disc", "-7", "--p", "2", "--a", "3", "--b", "4"],
        ["galois", "--disc", "-4", "--p", "13", "--a", "1"],
        ["phi", "--disc", "-4", "--n", "300"],
    ],
    ids=["galois-n", "galois-b", "galois-a", "phi-n-300"],
)
def test_unit_scans_load_no_numpy(args):
    # the unit mask is bytes built by `bytes.translate`, and the kernel,
    # image and orbit scans read it as bytes and ints
    probe = (
        "import os, sys, tcm.cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"tcm.cli.main({args!r})\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stderr == "False\n"


def _public_records() -> list:
    """One instance of every public record class of the library."""
    from tcm.analytics import landau_liminf_check, mertens_product, phi_bound_scan
    from tcm.feasibility import bound_records, chain_audit, constant_over, refined_table, sweep_region
    from tcm.galois_image import max_stabilizer_order
    from tcm.ideal_arith import principal_ideal
    from tcm.quad_core import as_discriminant
    from tcm.ray_class_bounds import degree_bounds

    runs = bound_records(3, 3)
    audit = chain_audit(1, -4, 1, 1)
    ideal = principal_ideal(-4, 5)
    return [
        as_discriminant(-4),
        runs[0],
        constant_over(runs),
        sweep_region(3),
        refined_table(1, 4)[0],
        audit,
        audit.steps[0],
        max_stabilizer_order(-4, 3, 0),
        degree_bounds(-4, ideal),
        ideal,
        ideal.factors[0][0],
        mertens_product(10),
        phi_bound_scan(-4, 100),
        landau_liminf_check(-4, 100),
    ]


def test_public_records_are_immutable():
    records = _public_records()
    public = set()
    for info in pkgutil.iter_modules(tcm.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"tcm.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if isinstance(obj, type) and not issubclass(obj, enum.Enum):
                public.add(obj)
    assert public == {type(rec) for rec in records}
    for rec in records:
        assert copy.copy(rec) == rec
        fields = [name for klass in type(rec).__mro__ for name in vars(klass).get("__annotations__", {})]
        assert fields, type(rec)
        for name in [*fields, "unlisted"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name, None))
