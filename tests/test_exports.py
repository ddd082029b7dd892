"""Every public name of the package resolves.

A name left in a module's ``__all__`` after its definition is gone breaks
``from consem.<module> import *``; a name ``consem/__init__.py`` imports
from a module should be one that module lists as public.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import consem

_MODULES = sorted(f"consem.{info.name}" for info in pkgutil.iter_modules(consem.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(consem.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"consem.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"consem.{node.module} has no {alias.name}"
            assert alias.name in module.__all__, f"{alias.name} is not in consem.{node.module}.__all__"
            assert getattr(consem, alias.name) is getattr(module, alias.name)
