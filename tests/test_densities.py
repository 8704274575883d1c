"""Archimedean densities: tables, moments, Poisson checks, derivatives."""

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from test_weights import sobolev_estimate

from cubesums import densities
from cubesums.densities import (
    _S1_EDGE,
    _S1_NODES,
    _Spline,
    _chi_integrand,
    _s1_spline,
    chi_surface,
    density_table,
    mixed_l1_moment,
    poisson_check,
    poisson_trend,
    pure_l2_moment,
    sigma_inf,
    weight_l2_norm_sq,
)
from cubesums.weights import Weight, bump, nu_star


@pytest.fixture(scope="module")
def nu2():
    return nu_star(2.0)


@pytest.fixture(scope="module")
def table2(nu2):
    return density_table(nu2)


def test_fast_route_matches_direct_quadrature(nu2):
    # tabulated S1 route vs literal 2-d adaptive surface integral; exercises
    # the Fubini/scaling identity end to end
    for atil in (0.0, 0.9):
        fast = sigma_inf(atil, 1.0, nu2)
        direct = sigma_inf(atil, 1.0, nu2, method="direct")
        assert abs(fast - direct) / max(abs(direct), 1e-12) < 1e-5, atil


def test_chi_surface_frozen_bits():
    # the S1 table's node values; any change to the w2 product shows here
    for b, bits in ((0.0, "0x1.ce305806fa3dbp-3"),
                    (1.3, "0x1.d68857e51a28bp-3"),
                    (2.9, "0x1.361f3cb9d0416p-2")):
        assert chi_surface(b).hex() == bits, b


def test_s1_table_frozen_digest():
    # all 385 node values and the off-grid validation error of the S1 table
    _spline, vals, worst = _s1_spline()
    assert hashlib.sha256(vals.tobytes()).hexdigest() == (
        "672471044b565720d313fcce8c0ff8a84681ea64e8cce51aa38d1e57d4c465d4")
    assert float(worst).hex() == "0x1.fc73929b8c6aap-21"


def _assert_scipy_bits(spline, x, y, points):
    """spline has scipy CubicSpline(x, y)'s coefficients, and its values at
    points to the bit (signed zeros included), in the shape of points."""
    ref = CubicSpline(x, y)
    for got, want in zip(spline._c, ref.c):
        assert np.array_equal(got, want)
    got, want = spline(points), ref(points)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_spline_is_scipys_bit_for_bit_on_random_knots():
    # a platform whose dgtsv fuses a - f*b into one FMA fails here; the
    # uneven sets make the elimination swap rows
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(4, 400))
        if trial % 3:
            x = np.cumsum(10.0 ** rng.uniform(-3, 2, n)) - rng.uniform(0, 50)
        else:
            x = np.linspace(-rng.uniform(0, 5), rng.uniform(0.1, 5), n)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
        span = x[-1] - x[0]
        points = np.concatenate([
            x, rng.uniform(x[0] - span, x[-1] + span, 4000 - n)])
        _assert_scipy_bits(_Spline(x, y), x, y, points.reshape(-1, 50))


def test_spline_is_scipys_bit_for_bit_on_the_tables(table2):
    half = np.linspace(0.0, _S1_EDGE, _S1_NODES)
    vals = _s1_spline()[1]
    x = np.concatenate([-half[:0:-1], half])
    y = np.concatenate([vals[:0:-1], vals])
    rng = np.random.default_rng(8)
    _assert_scipy_bits(_s1_spline()[0], x, y,
                       rng.uniform(-2 * _S1_EDGE, 2 * _S1_EDGE, 200_000))
    edge = table2.grid[-1]
    _assert_scipy_bits(table2._spline, table2.grid, table2.values,
                       rng.uniform(-2 * edge, 2 * edge, 200_000))


def _chi_integrand_unskipped(b, pts):
    # definitional: every point with |z1| >= 1/2 is formed, its six forms
    # sorted by np.sort, and all six w2 factors multiplied in
    z2, z3 = pts[:, 0], pts[:, 1]
    z1 = np.cbrt(b - z2 * z2 * z2 - z3 * z3 * z3)
    out = np.zeros(len(pts))
    m = np.abs(z1) >= 0.5
    y = np.column_stack([z1[m], z2[m], z3[m]])
    forms = np.sort(np.abs(np.column_stack(
        [y, y[:, 0] + y[:, 1], y[:, 0] + y[:, 2], y[:, 1] + y[:, 2]])), axis=1)
    prod = np.ones(len(y))
    for k in range(6):
        prod *= bump("w2", forms[:, k])
    out[m] = prod / (3.0 * z1[m] ** 2)
    return out, forms


def test_chi_integrand_skips_only_zero_rows():
    # grid values put forms exactly on the support edges 1/2 and 11
    # (z2 = 0.5, z3 = 11, z2 + z3 = 5.5 + 5.5), next to random points
    vals = [0.25, 0.5, 1.0, 3.0, 5.5, 10.0, 10.5, 11.0]
    grid = np.array(list(itertools.product(vals + [-v for v in vals],
                                           repeat=2)))
    rng = np.random.default_rng(31)
    pts = np.concatenate([grid, rng.uniform(-11.0, 11.0, size=(4000, 2))])
    for b in (0.0, 1.3, -2.9):
        want, forms = _chi_integrand_unskipped(b, pts)
        assert np.any(forms == 0.5) and np.any(forms == 11.0)
        assert 0 < np.count_nonzero(want) < len(pts)
        got = _chi_integrand(b, pts[:, 0], pts[:, 1])
        assert got.tobytes() == want.tobytes(), b


def test_sigma_direct_frozen_bits(nu2):
    # one probe where the w0 factor is 1 and one on its falling band
    for atil, bits in ((0.5, "0x1.406e02b69ebe1p-3"),
                       (2.6, "0x1.9334ed43a6782p-5")):
        value = sigma_inf(atil, 1.0, nu2, method="direct", rel_tol=1e-4)
        assert value.hex() == bits, atil


def test_table_validation_and_symmetry(nu2, table2):
    assert table2.max_validation_error < 1e-3
    x = np.linspace(0.0, 3.0, 2001)
    assert np.max(np.abs(table2(x) - table2(-x))) < 1e-14
    assert table2(np.array([0.0]))[0] > 0.15
    # outside the a-support the density vanishes
    assert np.all(table2(np.array([3.0001, -4.0, 100.0])) == 0.0)
    assert np.all(table2(x) >= 0.0)


def test_table_memoized(nu2):
    assert density_table(nu2) is density_table(nu2)
    assert density_table(nu2) is density_table(nu2, grid_size=512)
    assert len(density_table(nu2).grid) == 512


def test_table_memo_keys_on_weight_object():
    # same R, separately built: two weight objects, two equal tables
    w1, w2 = Weight(2.0), nu_star(2.0)
    assert w1 is not w2
    t1, t2 = density_table(w1), density_table(w2)
    assert t1 is not t2
    assert np.array_equal(t1.values, t2.values)
    assert density_table(nu_star(2)) is density_table(nu_star(2))


def test_sigma_inf_support_and_rescaling(nu2):
    assert sigma_inf(4.0, 1.0, nu2) == 0.0
    assert sigma_inf(3.1e6, 100.0, nu2) == 0.0
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(-2.8, 2.8)
        X = rng.uniform(1.0, 50.0)
        t = rng.uniform(1.1, 3.0)
        v1 = sigma_inf(a, X, nu2)
        v2 = sigma_inf(a * t**3, X * t, nu2)
        assert v1 > 0.0
        worst = max(worst, abs(v1 - v2) / v1)
    assert worst < 1e-6


def test_sigma_inf_grows_with_R(nu2):
    # longer r-range adds nonnegative mass to the surface integral
    assert sigma_inf(0.0, 1.0, nu_star(4.0)) > sigma_inf(0.0, 1.0, nu2)


def test_sigma_inf_log_R_lower_bound(nu2):
    c = sigma_inf(0.0, 1.0, nu2) / math.log(2.0)
    for R in (4.0, 8.0, 16.0):
        assert sigma_inf(0.0, 1.0, nu_star(R)) / math.log(R) >= 0.9 * c


def test_sigma_inf_rejects_fast_method(nu2):
    # "auto" (through S1) and "direct" are the only routes
    with pytest.raises(ValueError):
        sigma_inf(0.0, 1.0, nu2, method="fast")


def test_sigma_inf_rejects_nan(nu2):
    # every comparison with NaN is false, so a NaN X or a would slip past
    # the X and support checks and come back as 0.0
    with pytest.raises(ValueError, match="X must be positive"):
        sigma_inf(1.0, math.nan, nu2)
    with pytest.raises(ValueError, match="a must be a number, got nan"):
        sigma_inf(math.nan, 1.0, nu2)
    # an infinite a lies outside the support
    for a in (math.inf, -math.inf):
        assert sigma_inf(a, 1.0, nu2) == 0.0


def test_sigma_inf_tolerances_reach_direct_only(nu2, monkeypatch):
    # "auto" reads the S1 table, so a tolerance passed to it is an error
    for rel_tol in (1e-3, 1e-6):
        with pytest.raises(ValueError, match="direct"):
            sigma_inf(0.5, 1.0, nu2, rel_tol=rel_tol)
    assert sigma_inf(0.5, 1.0, nu2, rel_tol=None) == sigma_inf(0.5, 1.0, nu2)
    seen = []
    monkeypatch.setattr(densities, "_sigma_direct",
                        lambda atil, w, rel: seen.append(rel))
    sigma_inf(0.5, 1.0, nu2, method="direct")
    sigma_inf(0.5, 1.0, nu2, method="direct", rel_tol=1e-3)
    assert seen == [1e-6, 1e-3]


def test_pure_equals_mixed_moment(nu2):
    pure = pure_l2_moment(nu2)
    mixed = mixed_l1_moment(nu2)
    assert abs(mixed - pure) / pure < 1e-3


def test_weight_l2_norm_positive(nu2):
    v = weight_l2_norm_sq(nu2)
    assert 0.0 < v < math.log(2.0) ** 2 * 50.0


def test_weight_l2_norm_frozen_bits(nu2):
    # the slab path: outer 2-d adaptive rule around inner y1 Gauss panels;
    # the lru entry is test_weight_l2_norm_positive's
    assert weight_l2_norm_sq(nu2).hex() == "0x1.c650a9500c08dp-3"


def test_poisson_check_bands(nu2):
    r1 = poisson_check(nu2, 20, 1, 0)
    assert r1.rel_deviation < 1e-6
    r50 = poisson_check(nu2, 20, 5, 0)
    r51 = poisson_check(nu2, 20, 5, 1)
    # the limit is b-independent: both residues sit in the same band
    assert r50.rel_deviation < 1e-6 and r51.rel_deviation < 1e-6
    r80 = poisson_check(nu2, 80, 8, 3)
    assert r80.rel_deviation < 1e-2


def test_poisson_trend(nu2):
    tr = poisson_trend(nu2, 5, 0)
    assert tr.decreasing
    assert [r.X for r in tr.reports] == [20, 40, 80]


@dataclass(frozen=True)
class DerivativeProbe:
    k: int
    max_abs: float
    sobolev: float
    bound_scale: float
    ratio: float
    central_vs_onesided: float


def derivative_probe(weight, k):
    """Max |d^k/d a-tilde^k sigma| from the density table, compared with the
    sampled Sobolev norm times B^(10+4k); report only."""
    table = density_table(weight)
    spline = CubicSpline(table.grid, table.values)
    dense = np.linspace(table.grid[0], table.grid[-1], 4097)
    deriv = spline.derivative(k)(dense) if k else table(dense)
    max_abs = float(np.max(np.abs(deriv)))
    sob = sobolev_estimate(weight, k)
    bound_scale = sob * float(weight.B) ** (10 + 4 * k)
    # consistency of two first-derivative estimators at the steepest point
    d1 = spline.derivative(1)(dense)
    i = int(np.argmax(np.abs(d1)))
    x0 = float(np.clip(dense[i], table.grid[0] + 0.1, table.grid[-1] - 0.1))
    h = 2e-3
    central = (table(x0 + h) - table(x0 - h)) / (2 * h)
    onesided = (-3 * table(x0) + 4 * table(x0 + h) - table(x0 + 2 * h)) / (2 * h)
    rel = abs(central - onesided) / max(abs(central), 1e-12)
    return DerivativeProbe(k, max_abs, sob, bound_scale,
                           max_abs / bound_scale, rel)


def test_derivative_probe(nu2):
    p0 = derivative_probe(nu2, 0)
    assert p0.max_abs > 0.0 and math.isfinite(p0.ratio)
    p1 = derivative_probe(nu2, 1)
    assert p1.central_vs_onesided < 1e-3
    p2 = derivative_probe(nu2, 2)
    # higher derivatives grow but stay finite against the reported scale
    assert p2.max_abs > p1.max_abs > 0.0
    assert math.isfinite(p2.ratio) and p2.ratio >= 0.0
