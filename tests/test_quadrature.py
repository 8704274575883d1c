"""Adaptive Gauss quadrature and fixed rules."""

import math

import numpy as np
import pytest

from cubesums import quadrature
from cubesums.quadrature import (
    adaptive_integrate,
    gauss_rule,
    log_panel_rule,
    scaled_gauss_nodes,
)


def test_gauss_rule_polynomial_exactness():
    # order-q Gauss integrates degree <= 2q-1 exactly on [0, 1]
    x, w = gauss_rule(8)
    for k in range(16):
        assert math.fsum((w * x**k).tolist()) == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_gauss_rule_cached_read_only():
    x, _ = gauss_rule(8)
    with pytest.raises(ValueError):
        x[0] = 0.0


def _erf_integral(c, m):
    # integral of exp(-c (t - m)^2) over [0, 1]
    return math.sqrt(math.pi / c) * 0.5 * (math.erf(math.sqrt(c) * (1.0 - m))
                                           + math.erf(math.sqrt(c) * m))


def _narrow_bump(x, y):
    return np.exp(-1000.0 * (x - 0.3) ** 2 - 500.0 * (y - 0.6) ** 2)


def test_adaptive_2d_polynomial_exactness():
    # the 8-point rule integrates degree <= 15 per axis exactly, so one cell
    # converges in one round
    res = adaptive_integrate(lambda x, y: x**15 * y**14, (0.0, 0.0),
                             (1.0, 1.0), rel_tol=1e-12, seed=1)
    assert res.value == pytest.approx(1.0 / 240.0, rel=1e-14)
    assert res.n_cells == 1 and res.n_evals == 8**2 + 11**2


def test_adaptive_2d_narrow_bump():
    res = adaptive_integrate(_narrow_bump, (0.0, 0.0), (1.0, 1.0),
                             rel_tol=1e-9, seed=4)
    exact = _erf_integral(1000.0, 0.3) * _erf_integral(500.0, 0.6)
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.n_cells > 16  # the 4 x 4 seed grid was refined


def test_adaptive_2d_separable():
    res = adaptive_integrate(lambda x, y: x * y, (0.0, 0.0), (1.0, 1.0),
                             rel_tol=1e-10, seed=16)
    assert res.value == pytest.approx(0.25, rel=1e-12)


def test_adaptive_2d_thin_support():
    # smooth bump confined to a 0.02-wide strip; adaptive must find it
    def f(x, y):
        t = (x - 0.515) / 0.01
        return np.where(np.abs(t) < 1.0, (1.0 - t**2) ** 2, 0.0) * y

    res = adaptive_integrate(f, (0.0, 0.0), (1.0, 1.0), rel_tol=1e-6, seed=16)
    assert res.value == pytest.approx(0.01 * (16.0 / 15.0) * 0.5, rel=1e-5)


def test_adaptive_zero_function_terminates():
    res = adaptive_integrate(lambda x, y: np.zeros(len(x)), (0.0, 0.0),
                             (1.0, 1.0), rel_tol=1e-12, seed=16)
    assert res.value == 0.0
    assert res.n_evals == 16**2 * (8**2 + 11**2)


def test_adaptive_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(5)

    def noisy(x, y):
        return rng.standard_normal(len(x))

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 20000)
    with pytest.raises(RuntimeError, match="eval budget"):
        adaptive_integrate(noisy, (0.0, 0.0), (1.0, 1.0), rel_tol=1e-14,
                           seed=2)


def test_adaptive_rejects_a_box_not_in_the_plane():
    for lo, hi in (((0.0,), (1.0,)), ((0.0,) * 3, (1.0,) * 3)):
        with pytest.raises(ValueError, match="box in R\\^2"):
            adaptive_integrate(lambda x, y: x, lo, hi, rel_tol=1e-6, seed=4)
    with pytest.raises(ValueError, match="empty box"):
        adaptive_integrate(lambda x, y: x, (0.0, 1.0), (1.0, 1.0),
                           rel_tol=1e-6, seed=4)


def test_log_panel_rule():
    r, w = log_panel_rule(1.0, 8.0, panels=8, order=8)
    # d^x r = dr / r integrals
    assert math.fsum(w.tolist()) == pytest.approx(math.log(8.0), rel=1e-13)
    assert math.fsum((w * r**2).tolist()) == pytest.approx((64.0 - 1.0) / 2.0, rel=1e-12)


def test_scaled_gauss_nodes_rowwise():
    lo = np.array([0.0, 2.0, 1.0])
    hi = np.array([1.0, 3.0, 1.0])  # last row empty
    nodes, wts = scaled_gauss_nodes(lo, hi, 6)
    vals = np.sum(nodes**2 * wts, axis=1)
    assert vals[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert vals[1] == pytest.approx((27.0 - 8.0) / 3.0, rel=1e-12)
    assert vals[2] == 0.0
    assert np.all(wts[2] == 0.0)


def test_adaptive_2d_narrow_bump_frozen_bits():
    # recorded when the integrand still took an (N, 2) array of points
    res = adaptive_integrate(_narrow_bump, (0.0, 0.0), (1.0, 1.0),
                             rel_tol=1e-9, seed=4)
    assert res.value.hex() == "0x1.232b34eb5a4a1p-8"
    assert (res.n_evals, res.n_cells) == (14060, 46)


def test_adaptive_2d_gaussian_frozen_bits():
    # a broad anisotropic Gaussian, recorded as above
    res = adaptive_integrate(
        lambda x, y: np.exp(-40.0 * ((x - 0.3) ** 2 + 2.0 * (y - 0.6) ** 2)),
        (0.0, 0.0), (1.0, 1.0), rel_tol=1e-8, seed=4)
    assert res.value.hex() == "0x1.c54af0f0a106bp-5"


def test_adaptive_budget_is_exact(monkeypatch):
    # a run given its own eval count as the budget still converges, and no
    # run evaluates more points than its budget
    def f(x, y):
        return np.exp(-1e5 * (x - 0.3) ** 2)

    box = (0.0, 0.0), (1.0, 1.0)
    res = adaptive_integrate(f, *box, rel_tol=1e-12, seed=2)
    assert res.value.hex() == "0x1.6f5425f80309cp-8"
    monkeypatch.setattr(quadrature, "_MAX_EVALS", res.n_evals)
    assert adaptive_integrate(f, *box, rel_tol=1e-12, seed=2) == res
    for budget in (500, 1000, 2000, 5000, res.n_evals - 1):
        calls = []

        def counted(x, y):
            calls.append(len(x))
            return f(x, y)

        monkeypatch.setattr(quadrature, "_MAX_EVALS", budget)
        with pytest.raises(RuntimeError, match="eval budget"):
            adaptive_integrate(counted, *box, rel_tol=1e-12, seed=2)
        assert sum(calls) <= budget


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_integrand_gets_column_contiguous_blocks(blocks):
    # each coordinate reaches the integrand as its own contiguous array, in
    # calls of at most 2^14 nodes that together hold every node once: the
    # seed grid's 11-point rule spans `blocks` blocks
    calls = []

    def f(x, y):
        assert x.ndim == y.ndim == 1 and len(x) == len(y)
        assert x.flags.c_contiguous and y.flags.c_contiguous
        calls.append(len(x))
        return np.exp(-((x - 0.4) ** 2 + (y - 0.4) ** 2))

    seed = {1: 11, 2: 16, 3: 20}[blocks]
    res = adaptive_integrate(f, (0.0, 0.0), (1.0, 1.0), rel_tol=1e-10,
                             seed=seed)
    assert res.n_cells == seed**2  # converged on the seed grid
    n8, n11 = 8**2 * seed**2, 11**2 * seed**2
    expected = [min(1 << 14, n - k) for n in (n8, n11)
                for k in range(0, n, 1 << 14)]
    assert calls == expected
    assert len(expected) - math.ceil(n8 / (1 << 14)) == blocks
    assert sum(calls) == res.n_evals
    assert res.value == pytest.approx(
        (math.sqrt(math.pi) / 2 * (math.erf(0.6) + math.erf(0.4))) ** 2,
        rel=1e-9)
