"""Archimedean densities: tables, moments, Poisson checks, derivatives."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from cubesums import densities
from cubesums.densities import (
    _chi_integrand,
    _s1_spline,
    chi_surface,
    density_table,
    derivative_probe,
    fast_route_deviation,
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
    # tabulated S1 route vs literal 2-d adaptive surface integral
    dev = fast_route_deviation(R=2.0, probes=(0.0, 0.9))
    assert dev < 1e-5


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
        assert _chi_integrand(b, pts).tobytes() == want.tobytes(), b


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
    assert density_table(nu2) is density_table(nu2, grid_size=256)


def test_table_memo_keys_on_seed_and_probe_count(nu2):
    t1 = density_table(nu2, validation_points=4, seed=1)
    assert t1 is not density_table(nu2, validation_points=4, seed=0)
    assert t1 is not density_table(nu2, validation_points=2, seed=1)


def test_table_memo_keys_on_weight_object():
    # same R, separately built: two weight objects, two equal tables
    w1, w2 = Weight(2.0), nu_star(2.0)
    assert w1 is not w2
    t1, t2 = density_table(w1), density_table(w2)
    assert t1 is not t2
    assert np.array_equal(t1.values, t2.values)
    assert density_table(nu_star(2)) is density_table(nu_star(2))


def test_table_export_csv(table2, tmp_path):
    path = tmp_path / "table.csv"
    table2.export_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a_tilde,sigma"
    assert len(lines) == 1 + len(table2.grid)
    g0, v0 = lines[1].split(",")
    assert float(g0) == table2.grid[0] and float(v0) == table2.values[0]


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


def test_sigma_inf_tolerances_reach_direct_only(nu2, monkeypatch):
    # "auto" reads the S1 table, so a tolerance passed to it is an error
    for kwargs in ({"rel_tol": 1e-3}, {"abs_floor": 1.0},
                   {"rel_tol": 1e-6, "abs_floor": 1e-14}):
        with pytest.raises(ValueError, match="direct"):
            sigma_inf(0.5, 1.0, nu2, **kwargs)
    assert sigma_inf(0.5, 1.0, nu2, rel_tol=None, abs_floor=None) == (
        sigma_inf(0.5, 1.0, nu2))
    seen = []
    monkeypatch.setattr(densities, "_sigma_direct",
                        lambda atil, w, rel, floor: seen.append((rel, floor)))
    sigma_inf(0.5, 1.0, nu2, method="direct")
    sigma_inf(0.5, 1.0, nu2, method="direct", rel_tol=1e-3)
    sigma_inf(0.5, 1.0, nu2, method="direct", abs_floor=1e-9)
    assert seen == [(1e-6, 1e-14), (1e-3, 1e-14), (1e-6, 1e-9)]


def test_pure_equals_mixed_moment(nu2):
    pure = pure_l2_moment(nu2)
    mixed = mixed_l1_moment(nu2, rel_tol=1e-4)
    assert abs(mixed - pure) / pure < 1e-3


def test_weight_l2_norm_positive(nu2):
    v = weight_l2_norm_sq(nu2, rel_tol=1e-4)
    assert 0.0 < v < math.log(2.0) ** 2 * 50.0


def test_weight_l2_norm_frozen_bits(nu2):
    # the slab path: outer 2-d adaptive rule around inner y1 Gauss panels
    assert weight_l2_norm_sq(nu2, rel_tol=1e-1).hex() == "0x1.c63671e7746c9p-3"


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


def test_derivative_probe(nu2):
    p0 = derivative_probe(nu2, 0)
    assert p0.max_abs > 0.0 and math.isfinite(p0.ratio)
    p1 = derivative_probe(nu2, 1)
    assert p1.central_vs_onesided < 1e-3
    p2 = derivative_probe(nu2, 2)
    # higher derivatives grow but stay finite against the reported scale
    assert p2.max_abs > p1.max_abs > 0.0
    assert math.isfinite(p2.ratio) and p2.ratio >= 0.0
