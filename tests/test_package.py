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
