"""Module structure: each qdice module reads another's public names only, and every
name the benchmark's tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
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


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_pure_python_modules_load_no_numpy(name):
    # a fresh interpreter: the package's __init__ and every import it runs count
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, qdice.{name}; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


# the console script (pyproject's `qdice = "qdice.cli:main"`) calls it from outside
ENTRY_POINTS = {("cli", "main")}


def public_definitions(path: Path) -> set[str]:
    """The public names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names.update(t.id for t in elts if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def qdice_reads(path: Path, module: str | None = None, strings: bool = False) -> set[tuple[str, str]]:
    """(module, name) for each qdice name the file reads, resolved through its imports.

    A bare name is the one imported under it from qdice, else `module`'s own;
    `m.name` counts where m is a qdice module imported under that name. Only
    reads in the code count, never a docstring. With `strings`, a string
    literal `m.name[...]` that is not a docstring names `m`'s `name` too, as
    a tracer's list of dotted names does.
    """
    tree = ast.parse(path.read_text())
    modules: dict[str, str] = {}  # local name -> qdice module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (qdice module, name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if not node.level and source != "qdice" and not source.startswith("qdice."):
            continue
        package = source.removeprefix("qdice").lstrip(".") if not node.level else source
        for alias in node.names:
            local = alias.asname or alias.name
            if package:
                imported[local] = (package, alias.name)
            else:
                modules[local] = alias.name
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(imported.get(node.id, (module, node.id)))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add((modules[node.value.id], node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            parts = node.value.split(".")
            if len(parts) > 1:
                found.add((parts[0], parts[1]))
    return found


def unread_public_names(src: Path, bench: Path) -> list[str]:
    """`module.name` for each public top-level name of the package at `src`
    that neither the package's own code nor the benchmark scripts at `bench` read."""
    reads = set(ENTRY_POINTS)
    for path in src.glob("*.py"):
        reads |= qdice_reads(path, path.stem)
    for path in bench.glob("*.py"):
        reads |= qdice_reads(path, strings=True)
    return sorted(
        f"{path.stem}.{name}"
        for path in src.glob("*.py")
        for name in public_definitions(path)
        if (path.stem, name) not in reads
    )


def test_every_public_name_is_read_by_qdice_or_the_benchmark():
    # the library is what the CLI, `reproduce` and the benchmark run: a public
    # name that only tests call is dead code to them
    assert unread_public_names(SRC, SRC.parent.parent / "perfbench") == []


def test_reader_scan_resolves_imports_and_skips_docstrings(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        '"""Mentions b.unused and g."""\nfrom .b import used as u\nfrom . import b as bee\n'
        "X, Y = 1, 2\ndef f():\n    return u() + bee.attr + X\ndef g():\n    pass\n"
    )
    (src / "b.py").write_text("def used():\n    pass\nattr = 1\nunused = 2\ntraced = 3\nother = 4\n")
    (bench / "t.py").write_text('"""b.other"""\nfrom qdice import a\nNAMES = ("b.traced",)\na.Y\n')
    assert unread_public_names(src, bench) == ["a.f", "a.g", "b.other", "b.unused"]
