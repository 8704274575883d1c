"""Package surface: every name a module exports resolves and is used."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import cubesums

MODULES = sorted(m.name for m in pkgutil.iter_modules(cubesums.__path__))
ROOT = Path(__file__).resolve().parents[1]
# exported although no other module calls them: the cutoffs that the paper
# defines its weights from
KEEP = {"weights": {"ramp", "step"}}


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


def _names_used(paths):
    """Every identifier the files read, import or take as an attribute."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_used(name):
    # an export is used by another module, the benchmark or an acceptance
    # criterion, or is a report type; a check that only its own tests call
    # lives in those tests
    module = importlib.import_module(f"cubesums.{name}")
    users = [p for p in (ROOT / "src" / "cubesums").glob("*.py")
             if p.stem != name]
    users += [*(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    used = _names_used(users)
    unused = [n for n in getattr(module, "__all__", [])
              if n not in used and n not in KEEP.get(name, set())
              and not dataclasses.is_dataclass(getattr(module, n))]
    assert unused == []
