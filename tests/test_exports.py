"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import cubesums

MODULES = sorted(m.name for m in pkgutil.iter_modules(cubesums.__path__))


def test_modules_found():
    assert {"densities", "lattice", "weights"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cubesums.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    exec(f"from cubesums.{name} import *", {})
