"""The library imports nothing outside the standard library and itself,
graphs and oracle import nothing from each other, and the library parses as
Python 3.10, carries no assert statements and no unused module-level
definition, names the state expansion only where it is defined and writes
files only through the CLI's one writer; every function the benchmark traces
exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ghznl

SOURCES = sorted(Path(ghznl.__file__).parent.glob("*.py"))


def imported_modules(tree: ast.AST) -> list[str]:
    """Top-level names of absolute imports; relative imports are skipped."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def package_imports(tree: ast.AST) -> set[str]:
    """Names of the ghznl modules imported, relative or absolute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            names.update(p[1] for p in parts if p[0] == "ghznl" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "ghznl":
                continue
            inner = module[1:] if node.level == 0 else [m for m in module if m]
            names.update(inner[:1] or (alias.name for alias in node.names))
    return names


def test_package_imports_sees_every_import_form():
    tree = ast.parse(
        "import ghznl.cli\nfrom ghznl.arithmetic import x\nfrom ghznl import graphs\n"
        "from .oracle import y\nfrom . import certifier\nimport json\n"
        "from fractions import Fraction\n"
    )
    expected = {"cli", "arithmetic", "graphs", "oracle", "certifier"}
    assert package_imports(tree) == expected


@pytest.mark.parametrize("module, other", [("graphs", "oracle"), ("oracle", "graphs")])
def test_graph_route_and_oracle_stay_independent(module, other):
    """The two routes to a verdict check each other only while neither
    reads the other's code, a shared union-find or row index included."""
    path = Path(ghznl.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert other not in package_imports(tree)


def own_nodes(tree: ast.Module, names) -> set[int]:
    """ids of the nodes inside the module-level functions and classes
    named in `names`."""
    return {
        id(inner)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
        for inner in ast.walk(node)
    }


EXPANSION = {"StateVector", "expand_tuple", "expand_set"}


def test_library_expands_no_state():
    """StateVector, expand_tuple and expand_set are the public expansion API:
    outside their own definitions, and the re-export in ghznl/__init__.py,
    no line of the library names them, so no validator, the oracle or the
    certifier can expand a state."""
    named = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        own = own_nodes(tree, EXPANSION)
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names = [alias.name for alias in node.names]
            else:
                continue
            named.extend(
                f"{path.name}:{node.lineno}:{name}" for name in names if name in EXPANSION
            )
    assert named == []


WRITERS = {"write_text", "write_bytes"}


def writing_calls(tree: ast.AST, exempt: str = "") -> list[int]:
    """Lines that call write_text, write_bytes or the builtin open with a
    writing mode (or a mode that is not a string constant), outside the
    module-level function named `exempt`."""
    own = own_nodes(tree, {exempt})
    lines = []
    for node in ast.walk(tree):
        if id(node) in own or not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WRITERS:
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(
                not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                or set(m.value) & set("wax+")
                for m in modes
            ):
                lines.append(node.lineno)
    return lines


def test_writing_calls_sees_every_writing_form():
    tree = ast.parse(
        "p.write_text(t)\nopen(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\n"
        "open(p, m)\nopen(p)\nopen(p, 'rb')\np.read_text()\n"
        "def _write(p):\n    open(p, 'wb')\n"
    )
    assert writing_calls(tree, exempt="_write") == [1, 2, 3, 4, 5]


def test_cli_writes_files_only_through_its_helper():
    """Every file the package writes goes through `cli._write`, which
    overwrites in place and never opens with O_TRUNC, so a new output
    cannot bring back the truncating open."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = "_write" if path.name == "cli.py" else ""
        found.extend(f"{path.name}:{line}" for line in writing_calls(tree, exempt))
    assert found == []


def spread_tests(tree: ast.Module, exempt: str = "check_special_set") -> list[int]:
    """Lines that compare a value with 0b111, S.spread's mark of a
    coordinately different tuple, or count it, outside the module-level
    function named `exempt`."""
    own = own_nodes(tree, {exempt})
    lines = []
    for node in ast.walk(tree):
        if id(node) in own:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "count":
            operands = node.args
        else:
            continue
        values = [getattr(o, "value", None) for o in operands]
        if any(type(v) is int and v == 0b111 for v in values):
            lines.append(node.lineno)
    return lines


def test_spread_tests_sees_every_form():
    tree = ast.parse(
        "a != 0b111\n7 == b\nx.count(0b111)\nc < 7 <= d\na != 3\ny.count(3)\n"
        "f(7)\nz = v & 7\ndef check_special_set(s):\n    return s != 0b111\n"
    )
    assert spread_tests(tree) == [1, 2, 3, 4]


def test_only_check_special_set_tests_spread():
    """check_special_set is the one code that names the tuples that are not
    coordinately different: the census and build_systems walk its list, so
    a change to the special-set rule has one copy to change."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{line}" for line in spread_tests(tree))
    assert found == []


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "oracle.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name
        for name in imported_modules(tree)
        if name != "ghznl" and name not in sys.stdlib_module_names
    ]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    """pyproject.toml declares requires-python >= 3.10: no newer syntax."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_fraction_arithmetic(path):
    """Every decision runs on integers: no Fraction and no complex floats."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert {"fractions", "cmath"}.isdisjoint(imported_modules(tree))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Checks raise real exceptions: an assert vanishes under python -O."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def test_benchmark_traced_functions_exist():
    """perfbench/spans.py wraps ghznl.<module>.<function> by name; a renamed
    or deleted function would break the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, *_ in spans.TRACED
        if not hasattr(importlib.import_module(f"ghznl.{module}"), name)
    ]
    assert spans.TRACED and missing == []


def test_every_module_level_definition_is_used():
    """A module-level function or class, or a method or property of a
    library class, that no other line of the library names, and that
    ghznl/__init__.py does not export, is dead code.  Dunders and methods
    that override an attribute of a base class (argparse calls
    _Parser.error) are called from outside the library's own lines."""
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                module = importlib.import_module(f"ghznl.{path.stem}")
                bases = getattr(module, node.name).__mro__[1:]
                defined.extend(
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and not any(hasattr(base, item.name) for base in bases)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{module}:{name}"
        for module, name in defined
        if name.rpartition(".")[2] not in used
    ]
    assert unused == []
