"""The package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import zfrician

MODULES = ["zfrician", *(f"zfrician.{m.name}" for m in pkgutil.iter_modules(zfrician.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
