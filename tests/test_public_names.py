"""Every public name the package declares resolves: each module's __all__,
and each name the top-level package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bpalm

MODULES = sorted(info.name for info in pkgutil.iter_modules(bpalm.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from bpalm.{module} import *", namespace)  # a stale __all__ entry raises here
    mod = importlib.import_module(f"bpalm.{module}")
    for name in getattr(mod, "__all__", []):
        assert namespace[name] is getattr(mod, name)


def test_top_level_exports_are_declared_public():
    tree = ast.parse(Path(bpalm.__file__).read_text(encoding="utf-8"))
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert exports
    for module, name in exports:
        mod = importlib.import_module(f"bpalm.{module}")
        assert name in mod.__all__, f"bpalm.{module}.{name}"
        assert getattr(bpalm, name) is getattr(mod, name)
