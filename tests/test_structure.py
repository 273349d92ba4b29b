"""Module structure: each qdice module reads another's public names only, and every
name the benchmark's tracer wraps exists."""

import ast
import importlib
from pathlib import Path

import pytest

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


NUMPY_FREE = ("optimize", "weak_dr", "strong_cf", "strong_dr", "multiparty", "bounds")


def module_level_imports(path: Path) -> set[str]:
    """Absolute names of the modules the file imports outside any function or class.

    A relative import `from .m import x` counts as `qdice.m`, and
    `from . import m` as `qdice.m`.
    """
    names = set()
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(f"qdice.{node.module}")
            else:
                names.update(f"qdice.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        else:
            pending.extend(ast.iter_child_nodes(node))
    return names


def numpy_importers(module: str, src: Path = SRC) -> set[str]:
    """The qdice modules, among `module` and those it imports at module level
    (transitively), that import numpy at module level."""
    found, seen, pending = set(), set(), [module]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for imported in module_level_imports(src / f"{name}.py"):
            top, _, rest = imported.partition(".")
            if top == "numpy":
                found.add(name)
            elif top == "qdice" and rest:
                pending.append(rest.split(".")[0])
    return found


def test_pure_python_modules_import_no_numpy_at_module_level():
    assert {name: numpy_importers(name) for name in NUMPY_FREE} == {name: set() for name in NUMPY_FREE}


def test_numpy_scan_sees_direct_and_transitive_imports():
    assert numpy_importers("quantum_core") == {"quantum_core"}
    assert "quantum_core" in numpy_importers("weak_cf")


def test_numpy_scan_skips_function_bodies(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\ndef f():\n    import numpy\nclass C:\n    import numpy as np\n"
    )
    (tmp_path / "b.py").write_text("try:\n    from numpy.linalg import norm\nexcept ImportError:\n    pass\n")
    (tmp_path / "c.py").write_text("def g():\n    from numpy import array\n")
    assert numpy_importers("a", tmp_path) == {"b"}
    assert numpy_importers("c", tmp_path) == set()


def traced_names(path: Path) -> list[str]:
    """The dotted names in a tracing script's `TRACED = (...)` tuple, read without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{path} assigns no TRACED tuple")


def test_every_name_the_benchmark_traces_is_a_qdice_attribute():
    # the tracer wraps these by name; one renamed or moved away would stop being timed
    names = traced_names(SRC.parent.parent / "perfbench" / "tracing.py")
    assert names and len(names) == len(set(names))
    missing = []
    for name in names:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"qdice.{module}"), attr, None)):
            missing.append(name)
    assert missing == []
    kernels = {"apply", "project", "measure_projector", "subspace_probability"}
    assert {f"quantum_core.{name}" for name in kernels} <= set(names)


def test_traced_name_scan_reads_the_tuple(tmp_path):
    script = tmp_path / "tracing.py"
    script.write_text('X = 1\nTRACED = (\n    "a.b",\n    "c.d",\n)\n')
    assert traced_names(script) == ["a.b", "c.d"]
    script.write_text("TRACE = ()\n")
    with pytest.raises(AssertionError, match="no TRACED"):
        traced_names(script)
