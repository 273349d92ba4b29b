"""Module structure: each qdice module reads another's public names only."""

import ast
from pathlib import Path

import qdice

SRC = Path(qdice.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """`module.name` for each `_`-prefixed name the file imports from a qdice module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "qdice" and not module.startswith("qdice."):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_name():
    offenders = {path.name: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_scan_sees_a_private_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .weak_cf import WeakCFParams, _objective\nfrom math import _x\n")
    assert private_imports(source) == ["weak_cf._objective"]
