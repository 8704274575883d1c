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


# defaulted parameters that no call in the program sets, each with its reason
DEFAULTS_KEPT = {
    # paper identities that only tests run (ROADMAP "Keep")
    ("series", "euler_truncation_check"): {"Ks", "p_max"},
    ("series", "moment_report"): {"l_caps", "r", "eps", "product_cap"},
    # the benchmark passes these through Recorder.call, which no name
    # lookup sees
    ("densities", "sigma_inf"): {"rel_tol", "method"},
}


def _defaulted_params(tree):
    """(function, parameter, positional index or None) for every parameter
    with a default; a method's index does not count self or cls."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, in_class)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            bound = in_class and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                out.append((child.name, arg.arg, i - bound))
            out.extend((child.name, arg.arg, None)
                       for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None)
            visit(child, False)

    visit(tree, False)
    return out


def _calls_by_name(paths):
    """Every call in the files, keyed by the called name or attribute."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_set_outside_tests():
    # a default that only tests override is a constant: the program, the
    # benchmark or an acceptance criterion must pass every defaulted
    # parameter in some call to its function's name
    sources = sorted((ROOT / "src" / "cubesums").glob("*.py"))
    calls = _calls_by_name([*sources, *(ROOT / "perfbench").glob("*.py"),
                            ROOT / "tests" / "test_acceptance.py"])
    unset = []
    for path in sources:
        for fn, param, index in _defaulted_params(ast.parse(path.read_text())):
            if param in DEFAULTS_KEPT.get((path.stem, fn), ()):
                continue
            if not any(_sets(c, param, index) for c in calls.get(fn, [])):
                unset.append(f"{path.stem}.{fn}({param})")
    assert unset == []


def test_no_assert_in_src():
    # python -O strips assert, so a guard of a result raises a real
    # exception instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "cubesums").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_environment_read_in_src():
    # a flag or an argument names every setting; no module reads the
    # environment
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "cubesums").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if {"environ", "getenv"} & {getattr(node, "id", None),
                                         getattr(node, "attr", None),
                                         getattr(node, "name", None)}]
    assert found == []
