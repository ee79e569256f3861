"""Every name a module lists in __all__ must exist, so a deleted function
cannot linger in an export list; every name the benchmark traces must
exist, so a rename cannot break a traced run; every console script
pyproject declares must resolve, so an install creates no broken command;
a bare assert, which python -O strips, may only state an internal
invariant, never a postcondition; and every memo must be bounded."""

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


def unbounded_memos(source):
    """Line of each functools.cache or lru_cache(maxsize=None) in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and "lru_cache" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if size and isinstance(size[0], ast.Constant) and size[0].value is None:
                found.append(node.lineno)
    return found


def test_memos_are_bounded():
    assert unbounded_memos(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef f(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef g(): pass\n"
        "@lru_cache(None)\ndef h(): pass\n"
        "@functools.lru_cache(maxsize=16)\ndef k(): pass\n") == [2, 3, 5, 7]
    found = {path.stem: lines for path in sorted((ROOT / "src" / "quatpath").glob("*.py"))
             if (lines := unbounded_memos(path.read_text()))}
    assert not found, f"unbounded memo (module: lines): {found}"
