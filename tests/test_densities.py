"""Archimedean densities: tables, moments, Poisson checks, derivatives."""

import math

import numpy as np
import pytest

from cubesums.densities import (
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
from cubesums.weights import Weight, nu_star


@pytest.fixture(scope="module")
def nu2():
    return nu_star(2.0)


@pytest.fixture(scope="module")
def table2(nu2):
    return density_table(nu2)


def _zero_weight(name="zero"):
    return Weight(
        name=name, R=2.0, B=4, clean=True, very_clean=True, symmetric=True,
        a_support=3.0, evaluate=lambda y: np.zeros(len(y)),
    )


def _dirty_weight():
    return Weight(
        name="dirty", R=2.0, B=4, clean=True, very_clean=False, symmetric=True,
        a_support=3.0, evaluate=lambda y: np.ones(len(y)),
    )


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


def test_table_memo_keys_on_seed_and_probe_count():
    z = _zero_weight()
    t1 = density_table(z, grid_size=64, validation_points=4, seed=1)
    assert t1 is not density_table(z, grid_size=64, validation_points=4, seed=0)
    assert t1 is not density_table(z, grid_size=64, validation_points=2, seed=1)


def test_table_memo_keys_on_weight_object():
    # same name and R, separately built: two weights, two tables
    z1, z2 = _zero_weight(), _zero_weight()
    assert density_table(z1, grid_size=64, validation_points=4) is not \
        density_table(z2, grid_size=64, validation_points=4)


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


def test_sigma_inf_rejects_fast_method():
    # the fast route reads only weight.R; "auto" takes it for nu_star alone
    with pytest.raises(ValueError):
        sigma_inf(0.0, 1.0, _zero_weight(), method="fast")


def test_non_very_clean_rejected():
    with pytest.raises(ValueError):
        sigma_inf(0.0, 1.0, _dirty_weight())
    with pytest.raises(ValueError):
        density_table(_dirty_weight())


def test_zero_weight_all_zero():
    z = _zero_weight()
    table = density_table(z, grid_size=64, validation_points=4)
    assert np.all(table.values == 0.0)
    assert table.integrate_square() == 0.0
    assert mixed_l1_moment(z, grid_size=64) == 0.0


def test_look_alike_of_nu_star_takes_direct_route():
    # only nu_star(R) itself takes the S1 fast route, which reads weight.R
    z = _zero_weight(name="nu_star")
    assert sigma_inf(0.0, 1.0, z) == 0.0
    table = density_table(z, grid_size=64, validation_points=4)
    assert np.all(table.values == 0.0)


def test_pure_equals_mixed_moment(nu2):
    pure = pure_l2_moment(nu2)
    mixed = mixed_l1_moment(nu2, rel_tol=1e-4)
    assert abs(mixed - pure) / pure < 1e-3


def test_weight_l2_norm_positive(nu2):
    v = weight_l2_norm_sq(nu2, rel_tol=1e-4)
    assert 0.0 < v < math.log(2.0) ** 2 * 50.0


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
