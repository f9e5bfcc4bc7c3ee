import ast
import importlib
import pkgutil
from pathlib import Path

import tcm


def test_init_reexports_only_public_names():
    tree = ast.parse(Path(tcm.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"tcm.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(tcm.__path__):
        if info.name == "__main__":  # importing it runs the command
            continue
        module = importlib.import_module(f"tcm.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def test_bench_cli_boundary_names_resolve():
    import tcm.cli

    tree = ast.parse((BENCH / "child.py").read_text())
    (boundary,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_BOUNDARY" for t in node.targets)
    ]
    names = ast.literal_eval(boundary)
    assert names
    for name in names:
        assert hasattr(tcm.cli, name), name
