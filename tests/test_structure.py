"""Module structure: each qdice module reads another's public names only, tests
read private ones only within a reasoned allowance, and every name the
benchmark's tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdice

SRC = Path(qdice.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def qdice_imports(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """(modules, imported): each local name a file binds to a qdice module (`from
    qdice import m`, `from . import m`, `import qdice.m as m`) and each it binds
    to a qdice module's name, as (module, name) (`from qdice.m import name`,
    `from .m import name`)."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                (alias.asname, alias.name.removeprefix("qdice."))
                for alias in node.names
                if alias.asname and alias.name.startswith("qdice.")
            )
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
    return modules, imported


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """`module._name` for each touch of a private (`_`-prefixed, not dunder) name
    of a qdice module in the file: an import of it; an attribute `m._name`,
    where the file binds m to a qdice module; or a `setattr`, `getattr` or
    `delattr` call (`monkeypatch.setattr` too) naming it on such an m."""
    tree = ast.parse(path.read_text())
    modules, imported = qdice_imports(tree)
    found = [f"{module}.{name}" for module, name in imported.values() if is_private(name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "getattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            owner, name = node.args[0].id, node.args[1].value
        else:
            continue
        if owner in modules and isinstance(name, str) and is_private(name):
            found.append(f"{modules[owner]}.{name}")
    return found


def test_no_module_reads_another_modules_private_name():
    offenders = {path.name: private_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_scan_sees_a_private_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .weak_cf import WeakCFParams, _objective\nfrom math import _x\n")
    assert private_reads(source) == ["weak_cf._objective"]


def test_scan_sees_each_form_of_private_read(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import math\nimport numpy as np\nimport qdice.weak_cf as wc\n"
        "from qdice import cli, quantum_core as qc\nfrom qdice.optimize import _a, maximize_unimodal\n"
        "from .weak_dr import _b\nfrom math import _x\n"
        "wc._c(0.5)\nsetattr(qc, '_d', None)\nmonkeypatch.setattr(cli, '_e', None)\n"
        "qc.__doc__, wc.alice_opt_cheat, math._y, np._z, setattr(math, '_w', 1), getattr(qc, '__name__')\n"
    )
    assert sorted(private_reads(source)) == [
        "cli._e", "optimize._a", "quantum_core._d", "weak_cf._c", "weak_dr._b",
    ]


# The private qdice names that tests may read, each with why no public call
# can show what its tests pin. The gate below fails on a read outside this
# list and on an entry that no test reads any more, so the list only shrinks.
PRIVATE_ALLOWANCE = {
    "quantum_core._space": "a cache: that a space is checked once shows only in its hit counts",
    "quantum_core._targets": "a cache: that target labels are checked once shows only in its hit counts",
    "quantum_core._apply_plan": "a cache: that apply plans each permutation once shows only in its hit counts",
    "quantum_core._identity": "a cache: no result shows that unitarity checks share one read-only identity",
    "cli._shared_parser": "a cache: no run's output shows that the runs of a process share one parser",
    "quantum_core._check_norm": "a check counter: no result shows how many states a call built and checked",
    "weak_dr._exact_eps_bar": "a branch probe: both branches print the same verdict, so only a probe shows which ran",
    "weak_dr._harmonic_table": "a branch probe: the sweep's share does not show that it built one table",
    "colbeck_dr._ORACLE_BLOCK": "a block size: one-row and partial blocks need a block smaller than the default",
    "quantum_core._draw_index": "a fail-closed guard: no normalized marginal is NaN or off 1, and no seeded "
    "stream is known to draw exactly on a cdf boundary",
    "weak_cf._objective_coeffs": "a fail-closed guard: no valid (p, eta) gives a NaN or negative coefficient",
    "weak_dr._worst_case_constants": "an exact constant: the sweep prints only the share of (N, party) pairs "
    "under the bound, not each constant",
}


def test_tests_read_no_private_name_outside_the_allowance():
    reads = {name for path in sorted(TESTS.glob("*.py")) for name in private_reads(path)}
    assert sorted(reads - PRIVATE_ALLOWANCE.keys()) == []
    assert sorted(PRIVATE_ALLOWANCE.keys() - reads) == []  # an entry nothing reads is deleted


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
    modules, imported = qdice_imports(tree)
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
