"""Every name a module lists in __all__ must exist, so a deleted function
cannot linger in an export list; every name the benchmark traces must
exist, so a rename cannot break a traced run; every console script
pyproject declares must resolve, so an install creates no broken command;
a bare assert, which python -O strips, may only state an internal
invariant, never a postcondition."""

import ast
import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import quatpath

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(quatpath.__path__):
        module = importlib.import_module(f"quatpath.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"quatpath.{info.name}.__all__ lists missing {name}"
            checked += 1
    assert checked > 0


def test_every_traced_name_resolves():
    # perfbench/spans.py imports only the standard library
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    specs = list(spans._specs())
    for mod_name, _, attr in specs:
        module = importlib.import_module(f"quatpath.{mod_name}")
        # raises AttributeError naming the missing attribute
        functools.reduce(getattr, attr.split("."), module)
    assert specs


def test_every_declared_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        mod_name, _, attr = target.partition(":")
        # raises ModuleNotFoundError naming the missing module
        module = importlib.import_module(mod_name)
        assert callable(functools.reduce(getattr, attr.split("."), module)), name


# (module, function) of every bare assert src may keep, each an internal
# invariant; a check on a returned value goes through errors._ensure
ALLOWED_ASSERTS = {
    ("eqsolver", "lift_genus_solution"),
    ("qform", "prime_form"),
    ("qform", "_concordant"),
    ("qform", "fundamental_discriminant"),
}


def bare_asserts(path):
    """(module, enclosing function) of each assert statement in a source file."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Assert):
            found.append((path.stem, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_bare_asserts_only_state_invariants():
    found = [a for path in sorted((ROOT / "src" / "quatpath").glob("*.py"))
             for a in bare_asserts(path)]
    assert sorted(found) == sorted(ALLOWED_ASSERTS), \
        "a postcondition must go through errors._ensure, not assert"
