"""Adaptive Gauss quadrature and fixed rules."""

import math

import numpy as np
import pytest

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


def test_adaptive_1d_polynomial():
    res = adaptive_integrate(lambda p: p[:, 0] ** 2, (0.0,), (1.0,), rel_tol=1e-10)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.n_evals > 0 and res.n_cells >= 1


def test_adaptive_1d_narrow_bump():
    # integral of exp(-1000 (x - 0.3)^2) over [0, 1]
    c = 1000.0
    exact = math.sqrt(math.pi / c) * 0.5 * (math.erf(math.sqrt(c) * 0.7) + math.erf(math.sqrt(c) * 0.3))
    res = adaptive_integrate(lambda p: np.exp(-c * (p[:, 0] - 0.3) ** 2), (0.0,), (1.0,), rel_tol=1e-9)
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_adaptive_2d_separable():
    res = adaptive_integrate(lambda p: p[:, 0] * p[:, 1], (0.0, 0.0), (1.0, 1.0), rel_tol=1e-10)
    assert res.value == pytest.approx(0.25, rel=1e-12)


def test_adaptive_2d_thin_support():
    # smooth bump confined to a 0.02-wide strip; adaptive must find it
    def f(p):
        t = (p[:, 0] - 0.515) / 0.01
        return np.where(np.abs(t) < 1.0, (1.0 - t**2) ** 2, 0.0) * p[:, 1]

    res = adaptive_integrate(f, (0.0, 0.0), (1.0, 1.0), rel_tol=1e-6)
    assert res.value == pytest.approx(0.01 * (16.0 / 15.0) * 0.5, rel=1e-5)


def test_adaptive_3d_product():
    res = adaptive_integrate(
        lambda p: p[:, 0] * p[:, 1] * p[:, 2], (0.0,) * 3, (1.0,) * 3, rel_tol=1e-8
    )
    assert res.value == pytest.approx(0.125, rel=1e-10)


def test_adaptive_zero_function_terminates():
    res = adaptive_integrate(lambda p: np.zeros(len(p)), (0.0, 0.0), (1.0, 1.0), rel_tol=1e-12)
    assert res.value == 0.0


def test_adaptive_budget_exhaustion():
    rng = np.random.default_rng(5)

    def noisy(p):
        return rng.standard_normal(len(p))

    with pytest.raises(RuntimeError):
        adaptive_integrate(noisy, (0.0,), (1.0,), rel_tol=1e-14, max_evals=20000)


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


def test_adaptive_1d_narrow_bump_frozen_bits():
    res = adaptive_integrate(lambda p: np.exp(-1000.0 * (p[:, 0] - 0.3) ** 2),
                             (0.0,), (1.0,), rel_tol=1e-9)
    assert res.value.hex() == "0x1.cb292f7603cc4p-5"


def test_adaptive_3d_gaussian_frozen_bits():
    def f(p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.exp(-40.0 * ((x - 0.3) ** 2 + 2.0 * (y - 0.6) ** 2
                               + 3.0 * (z - 0.5) ** 2))

    res = adaptive_integrate(f, (0.0,) * 3, (1.0,) * 3, rel_tol=1e-8)
    assert res.value.hex() == "0x1.255ffe6ce9d25p-7"


def test_adaptive_budget_is_exact():
    # a run given its own eval count as the budget still converges, and no
    # run evaluates more points than its budget
    def f(p):
        return np.exp(-1e5 * (p[:, 0] - 0.3) ** 2)

    res = adaptive_integrate(f, (0.0,), (1.0,), rel_tol=1e-12)
    assert adaptive_integrate(f, (0.0,), (1.0,), rel_tol=1e-12,
                              max_evals=res.n_evals) == res
    for budget in (500, 700, 900, res.n_evals - 1):
        calls = []

        def counted(p):
            calls.append(len(p))
            return f(p)

        with pytest.raises(RuntimeError, match="eval budget"):
            adaptive_integrate(counted, (0.0,), (1.0,), rel_tol=1e-12,
                               max_evals=budget)
        assert sum(calls) <= budget


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integrand_gets_column_contiguous_blocks(dim):
    # every call holds at most 2^14 rows, each column is contiguous, and the
    # blocks together hold every node once
    calls = []

    def f(p):
        assert p.ndim == 2 and p.shape[1] == dim and p.shape[0] <= 1 << 14
        for k in range(dim):
            assert p[:, k].flags.c_contiguous
        calls.append(len(p))
        return np.exp(-np.sum((p - 0.4) ** 2, axis=1))

    seed = {1: 3000, 2: 20, 3: 6}[dim]
    res = adaptive_integrate(f, (0.0,) * dim, (1.0,) * dim, rel_tol=1e-10,
                             seed=seed)
    assert max(calls) == 1 << 14
    assert sum(calls) == res.n_evals
    assert res.value == pytest.approx(
        (math.sqrt(math.pi) / 2 * (math.erf(0.6) + math.erf(0.4))) ** dim,
        rel=1e-9)
