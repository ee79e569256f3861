"""Every name a module lists in __all__ must exist, so a deleted function
cannot linger in an export list; every name the benchmark traces must
exist, so a rename cannot break a traced run; every console script
pyproject declares must resolve, so an install creates no broken command;
src keeps no bare assert, which python -O strips; every memo must be
bounded; and every private name src defines is used in src."""

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


# (module, function) of every bare assert src may keep; none, since python
# -O strips them: every check goes through errors._ensure
ALLOWED_ASSERTS = set()


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


def unreferenced_private_names(sources):
    """(module, name) of each underscore-named function, class, method or
    module-level constant that no AST name or attribute in sources refers
    to outside its own definition.  sources maps module name to source."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defined = []  # (module, name, definition node)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((mod, node.name, node))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            defined += [(mod, t.id, node) for t in targets if isinstance(t, ast.Name)]
    private = [d for d in defined if d[1].startswith("_") and not d[1].startswith("__")]
    # each reference with the ids of the definitions enclosing it
    refs = {}

    def visit(node, inside):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, []).append(inside)
        inside = inside | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees.values():
        visit(tree, frozenset())
    return sorted((mod, name) for mod, name, node in private
                  if all(id(node) in inside for inside in refs.get(name, ())))


def test_every_private_name_is_used():
    assert unreferenced_private_names({"m": (
        "_LIMIT = 3\n_UNUSED = 4\n"
        "def _used(x): return x < _LIMIT\n"
        "def _recursive(n): return n and _recursive(n - 1)\n"
        "def _craft_left_transform(g): return g\n"
        "class _Box:\n    def _area(self): return 0\n    def _side(self): return self._area()\n"
        "def run(): return _used(1), _Box()._side()\n")}) == [
        ("m", "_UNUSED"), ("m", "_craft_left_transform"), ("m", "_recursive")]
    found = unreferenced_private_names(
        {path.stem: path.read_text() for path in sorted((ROOT / "src" / "quatpath").glob("*.py"))})
    assert not found, f"private names src defines but never uses: {found}"
