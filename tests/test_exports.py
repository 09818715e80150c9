"""Tests that the package's public names and its re-exports stay in step."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import srkweak

_MODULES = [importlib.import_module(f"srkweak.{info.name}") for info in pkgutil.iter_modules(srkweak.__path__)]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__), module.__name__
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}, which it does not define"


def test_every_package_reexport_is_public_in_its_module():
    tree = ast.parse(Path(srkweak.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"srkweak.{module_name}")
        assert name in module.__all__, f"srkweak re-exports {name!r}, which srkweak.{module_name}.__all__ omits"
        assert getattr(srkweak, name) is getattr(module, name)
