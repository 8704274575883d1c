"""The domain of the public API: every int parameter, and each float or
sequence argument that once slipped through, refuses a value outside its
domain with a ValueError that names it, before any work."""

import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubesums import densities, expsums, lattice, quadrature, variance
from cubesums.expsums import MAX_MODULUS
from cubesums.variance import HypothesisParams
from cubesums.weights import nu_star

W = nu_star(2.0)


class Worked(Exception):
    """Work started before the argument was checked."""


def _no_work(*args, **kwargs):
    raise Worked


# (module, function) -> (the other arguments of a valid call, and per int
# parameter (a valid value, lo, hi)): the function refuses any value outside
# [lo, hi], None meaning no bound on that side.  A p is a prime in [lo, hi].
TABLE = {
    ("expsums", "cube_counts"): ({}, {"m": (7, 1, MAX_MODULUS)}),
    ("expsums", "point_count_vector"): ({}, {"m": (7, 1, MAX_MODULUS)}),
    ("expsums", "point_counts_bruteforce"): ({}, {"m": (7, 1, 256)}),
    ("expsums", "t_prime_power"): ({}, {"p": (7, 2, MAX_MODULUS),
                                        "l": (2, 1, 7)}),
    ("expsums", "t_full"): ({}, {"n": (7, 1, MAX_MODULUS)}),
    ("expsums", "t_single"): ({}, {"a": (2, None, None),
                                   "n": (7, 1, MAX_MODULUS)}),
    ("expsums", "t_direct"): ({}, {"n": (7, 1, 128)}),
    ("expsums", "s_plus_zero"): ({}, {"n": (4, 1, None), "d": (2, 1, None)}),
    ("expsums", "s_plus_zero_bruteforce"): ({}, {"n": (4, 1, None),
                                                 "d": (2, 1, None)}),
    ("expsums", "sigma_p_a"): ({}, {"p": (7, 2, MAX_MODULUS),
                                    "a": (2, None, None)}),
    ("expsums", "g_density"): ({}, {"n": (7, 1, None)}),
    ("expsums", "singular_series_euler"): ({}, {"d": (2, 1, None)}),
    ("series", "series_window"): ({}, {"K": (4, 1, MAX_MODULUS),
                                       "a_lo": (-10, None, None),
                                       "a_hi": (10, -10, None)}),
    ("series", "s_value"): ({}, {"a": (2, None, None),
                                 "K": (4, 1, MAX_MODULUS)}),
    ("series", "m_value"): ({}, {"a": (2, None, None),
                                 "K": (4, 1, MAX_MODULUS)}),
    ("series", "c_coeff"): ({}, {"a": (2, None, None), "n": (12, 1, None)}),
    ("series", "c_coeff_definitional"): ({}, {"a": (2, None, None),
                                              "n": (12, 1, None)}),
    ("series", "gamma_factor"): ({}, {"a": (2, None, None),
                                      "p": (7, 2, MAX_MODULUS)}),
    ("series", "gamma_product"): ({}, {"a": (2, None, None),
                                       "p_max": (100, 2, MAX_MODULUS)}),
    ("series", "euler_truncation_check"): ({}, {"a": (2, None, None),
                                                "p_max": (100, 2, MAX_MODULUS)}),
    ("series", "identity_check_s_times_m"): ({}, {"a": (2, None, None),
                                                  "K": (4, 1, MAX_MODULUS)}),
    ("series", "exceptional_scan"): ({"eta": 0.2}, {"A": (50, 0, None),
                                                    "K": (4, 1, MAX_MODULUS)}),
    ("series", "moment_report"): ({"p_list": [5]}, {"r": (1, 1, 2),
                                                    "product_cap": (100, 1, None)}),
    ("lattice", "count_weighted"): ({"weight": W}, {"X": (8, 1, None)}),
    ("lattice", "pair_count"): ({"weight": W}, {"X": (8, 1, None),
                                                "d": (2, 1, None)}),
    ("lattice", "pair_count_bruteforce"): ({"weight": W}, {"X": (8, 1, None),
                                                           "d": (2, 1, None)}),
    ("lattice", "special_count"): ({"weight": W}, {"X": (8, 1, None),
                                                   "d": (2, 1, None)}),
    ("lattice", "r3_nonneg"): ({}, {"a": (100, 0, None)}),
    ("lattice", "prime_demo"): ({}, {"A": (1000, 2, 10**6)}),
    ("densities", "density_table"): ({"weight": W},
                                     {"grid_size": (512, 64, 1 << 16)}),
    ("densities", "poisson_check"): ({"weight": W}, {"X": (20, 1, None),
                                                     "N": (3, 1, None),
                                                     "b": (1, None, None)}),
    ("densities", "poisson_trend"): ({"weight": W}, {"N": (3, 1, None),
                                                     "b": (1, None, None)}),
    ("variance", "variance"): ({"weight": W}, {"X": (20, 1, None),
                                               "K": (4, 1, MAX_MODULUS),
                                               "d": (2, 1, None)}),
    ("variance", "moment_check_levels"): ({"levels": (4,)}, {"d": (2, 1, 8)}),
    ("variance", "nonarch_moment_check"): ({}, {"K": (4, 1, 48),
                                                "d": (2, 1, 8)}),
    ("variance", "sieved_variance"): ({"hparams": HypothesisParams(),
                                       "weight": W},
                                      {"X": (20, 2, None),
                                       "K": (4, 1, MAX_MODULUS)}),
    ("variance", "pipeline_demo"): ({"X_list": (20,)}, {"j": (2, 1, None)}),
    ("quadrature", "gauss_rule"): ({}, {"order": (4, 1, None)}),
    ("quadrature", "log_panel_rule"): ({"lo": 1.0, "hi": 2.0},
                                       {"panels": (4, 1, None),
                                        "order": (4, 1, None)}),
    ("quadrature", "scaled_gauss_nodes"): ({"lo": np.zeros(1),
                                            "hi": np.ones(1)},
                                           {"order": (4, 1, None)}),
    ("quadrature", "adaptive_integrate"): ({"f": _no_work, "lo": (0, 0),
                                            "hi": (1, 1), "rel_tol": 1e-3},
                                           {"seed": (4, 1, 657)}),
    ("weights", "sample_support_candidates"): ({"R": 2.0},
                                               {"n": (5, 0, None),
                                                "seed": (0, 0, None)}),
}
# the vector functions read their argument as a modulus and name it so
SPELLED = {("cube_counts", "m"): "modulus",
           ("point_count_vector", "m"): "modulus",
           ("t_full", "n"): "modulus", ("t_single", "n"): "modulus"}
CASES = [(module, fn, param) for (module, fn), (_, params) in TABLE.items()
         for param in params]


def _bad_values(lo, hi):
    # NaN, +-inf and the ints just outside [lo, hi] come first: at
    # max_examples=12 every one of them is drawn for every parameter, with
    # some fractional floats.  No integral float or bool: an lru_cache keys
    # 7.0 and True as 7 and 1, so a cached function may answer them before
    # its check runs, with the value of the equal integer
    edges = [math.nan, math.inf, -math.inf]
    edges += [lo - 1, lo - 2] if lo is not None else []
    edges += [hi + 1, hi + 2] if hi is not None else []
    fractional = st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not x.is_integer())
    return st.one_of(st.sampled_from(edges), fractional)


@pytest.mark.parametrize("module, fn, param", CASES,
                         ids=[f"{m}.{f}-{p}" for m, f, p in CASES])
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(data=st.data())
def test_int_parameter_refuses_values_outside_its_domain(module, fn, param,
                                                         data):
    extra, params = TABLE[module, fn]
    _ok, lo, hi = params[param]
    value = data.draw(_bad_values(lo, hi), label=param)
    kwargs = {name: ok for name, (ok, _lo, _hi) in params.items()}
    kwargs.update(extra, **{param: value})
    func = getattr(importlib.import_module(f"cubesums.{module}"), fn)
    name = SPELLED.get((fn, param), param)
    with pytest.MonkeyPatch.context() as mp:
        for target, attr in ((lattice, "_iter_orbits"), (lattice, "_iter_alive"),
                             (densities, "adaptive_integrate"),
                             (expsums, "_prime_power_counts")):
            mp.setattr(target, attr, _no_work)
        with pytest.raises(ValueError) as info:
            result = func(**kwargs)
            if inspect.isgenerator(result):  # moment_check_levels
                next(result)
    assert f"{name}={value!r}" in str(info.value)


# arguments that pass a plain comparison but break the work: an infinite X
# (sigma at a~ = 0), an X whose float cube overflows or underflows, an
# infinite hi (NaN nodes) and an empty R_list (max of nothing)
@pytest.mark.parametrize("call, named", [
    (lambda: densities.sigma_inf(1.0, math.inf, W), "X=inf"),
    (lambda: densities.sigma_inf(1.0, 1e200, W), "X=1e+200"),
    (lambda: densities.sigma_inf(1.0, 1e-300, W), "X=1e-300"),
    (lambda: quadrature.log_panel_rule(1.0, math.inf, 4, 4), "hi=inf"),
    (lambda: variance.pipeline_demo(R_list=()), "R_list=()"),
    (lambda: quadrature.adaptive_integrate(_no_work, (0, 0), (1, 1), math.nan,
                                           4), "rel_tol=nan"),
    (lambda: densities.chi_surface(math.nan), "b=nan"),
], ids=["sigma_inf-X-inf", "sigma_inf-X-cube-overflows",
        "sigma_inf-X-cube-underflows", "log_panel_rule-hi-inf",
        "pipeline_demo-R_list-empty", "adaptive_integrate-rel_tol-nan",
        "chi_surface-b-nan"])
def test_argument_refused_by_name(call, named, monkeypatch):
    for target, attr in ((densities, "_sigma_fast"), (quadrature, "gauss_rule"),
                         (variance, "sigma_inf"), (lattice, "_iter_orbits"),
                         (densities, "adaptive_integrate")):
        monkeypatch.setattr(target, attr, _no_work)
    with pytest.raises(ValueError) as info:
        call()
    assert named in str(info.value)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n)
        if (callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield n, obj


def test_table_names_every_int_parameter():
    # every int-annotated parameter of a public function has its domain in
    # TABLE; none is left out
    want = set()
    for module in ("expsums", "series", "lattice", "densities", "variance",
                   "quadrature", "weights"):
        mod = importlib.import_module(f"cubesums.{module}")
        for fn, obj in _public_functions(mod):
            want |= {(module, fn, p.name)
                     for p in inspect.signature(obj).parameters.values()
                     if p.annotation == "int"}
    assert set(CASES) == want
