"""Every name a module lists in __all__ must exist, so a deleted function
cannot linger in an export list."""

import importlib
import pkgutil

import quatpath


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(quatpath.__path__):
        module = importlib.import_module(f"quatpath.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"quatpath.{info.name}.__all__ lists missing {name}"
            checked += 1
    assert checked > 0
