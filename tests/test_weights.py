"""Smooth weights: bumps, the symmetric form f0, and the nu* family."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from cubesums.weights import (
    DEFAULT_BUMPS,
    bump,
    f0,
    nu_star,
    nu_star_support_volume,
    ramp,
    sample_support_candidates,
    sobolev_estimate,
    step,
    _CHUNK_CELLS,
    _r_rule_params,
    _six_forms,
    _w2_product,
)


def test_ramp_and_step_basics():
    assert ramp(np.array([-1.0, 0.0]))[0] == 0.0
    assert ramp(np.array([-1.0, 0.0]))[1] == 0.0
    assert ramp(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    x = np.linspace(-0.5, 1.5, 101)
    s = step(x)
    assert np.all(s[x <= 0.0] == 0.0)
    assert np.all(s[x >= 1.0] == 1.0)
    # partition property on the transition band
    mid = x[(x > 0.0) & (x < 1.0)]
    assert np.allclose(step(mid) + step(1.0 - mid), 1.0, rtol=1e-14, atol=0)
    assert np.all(np.diff(s) >= 0.0)


def test_bump_frozen_values():
    assert bump("w0", np.array([0.0]))[0] == 1.0
    assert bump("w2", np.array([10.0]))[0] == 1.0
    assert bump("w2", np.array([0.4]))[0] == 0.0
    # w0(2.5) = step(0.5) = ramp(1/2) / (2 ramp(1/2)) = 1/2 exactly
    assert bump("w0", np.array([2.5]))[0] == 0.5
    with pytest.raises(ValueError):
        bump("w7", np.array([0.0]))


def test_bump_spec_invariants():
    t = np.linspace(-12.0, 12.0, 4001)
    bands = {
        "w0": (DEFAULT_BUMPS.w0_plateau, DEFAULT_BUMPS.w0_support),
        "w2": (DEFAULT_BUMPS.w2_plateau, DEFAULT_BUMPS.w2_support),
    }
    for kind, (plateau, support) in bands.items():
        v = bump(kind, t)
        assert np.all((v >= 0.0) & (v <= 1.0))
        on = (t >= plateau[0]) & (t <= plateau[1])
        assert np.all(v[on] == 1.0)
        off = (t <= support[0]) | (t >= support[1])
        assert np.all(v[off] == 0.0)
    # w0 is even
    assert np.array_equal(bump("w0", t), bump("w0", -t))


def test_f0_exact_symmetry_and_oddness():
    rng = np.random.default_rng(42)
    y = rng.uniform(-20.0, 20.0, size=(500, 3))
    base = f0(y)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(f0(y[:, perm]), base)
    assert np.array_equal(f0(-y), -base)


def test_f0_values():
    y = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 2.0]])
    assert np.array_equal(f0(y), np.array([36.0, 0.0, 6.0]))


def test_nu_star_flags_and_validation():
    nu = nu_star(2.0)
    assert nu.B == 22 and nu.a_support == 3.0
    assert nu.clean and nu.very_clean and nu.symmetric
    with pytest.raises(ValueError):
        nu_star(1.5)


def test_nu_star_rejects_non_finite_R():
    for R in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite number >= 2"):
            nu_star(R)


def test_nu_star_evaluate_is_row_pure():
    # the lattice orbit walk evaluates nu once per orbit representative, so
    # a row's value must not depend on the rows batched with it
    nu = nu_star(2.0)
    pts = sample_support_candidates(2.0, 16392, seed=11)
    whole = nu.evaluate(pts)
    live = np.flatnonzero(whole > 0.0)
    assert len(live) > 1000
    for i in np.concatenate([live[:200], np.arange(20)]):
        assert nu.evaluate(pts[i:i + 1])[0] == whole[i]
    assert np.array_equal(nu.evaluate(pts[7:]), whole[7:])
    # every point of y reaches the r-integral, so these batches straddle its
    # chunk boundary at `rows` and shift the rows within a chunk
    panels, order = _r_rule_params(2.0)
    rows = _CHUNK_CELLS // (panels * order)
    y, vy = pts[live], whole[live]
    assert len(y) > rows + 8
    for lo, hi in ((0, rows), (0, rows + 1), (rows - 1, len(y)),
                   (7, rows + 8), (1, 168)):
        assert np.array_equal(nu.evaluate(y[lo:hi]), vy[lo:hi])


def _w2_product_by_bump(forms, r):
    # definitional: one bump("w2", .) per form, multiplied in k order
    prod = bump("w2", forms[:, 0][:, None] / r)
    for k in range(1, forms.shape[1]):
        prod *= bump("w2", forms[:, k][:, None] / r)
    return prod


def test_w2_product_equals_bump_product():
    rng = np.random.default_rng(17)
    # t = form / r lands exactly on the band edges 0.5, 1, 10 and 11 where
    # r is 1 or 2, and on both sides of them elsewhere
    edges = np.array([0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 11.0, 20.0, 22.0])
    forms = np.concatenate([rng.choice(edges, size=(300, 6)),
                            rng.uniform(0.2, 24.0, size=(700, 6))])
    forms[::2].sort(axis=1)  # sorted rows as _six_forms gives, and unsorted
    r = np.column_stack([np.ones(len(forms)), np.full(len(forms), 2.0),
                         rng.uniform(0.5, 2.5, size=(len(forms), 30))])
    t = forms[:, :, None] / r[:, None, :]
    for edge in (0.5, 1.0, 10.0, 11.0):
        assert np.any(t == edge), edge
    got = _w2_product(forms, r)
    assert np.array_equal(got, _w2_product_by_bump(forms, r))
    assert 0.0 < np.count_nonzero(got) < got.size
    assert np.any((got > 0.0) & (got < 1.0)) and np.any(got == 1.0)
    # a scalar scale, as the S1 surface integrand passes it
    assert np.array_equal(_w2_product(forms, 1.0),
                          _w2_product_by_bump(forms, 1.0))


def test_nu_star_evaluate_frozen_digest():
    # 1911 live rows, several r-integral chunks: every bit of every value
    v = nu_star(2.0).evaluate(sample_support_candidates(2.0, 20000, seed=5))
    assert np.count_nonzero(v) == 1911
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "e9f022a07fbea2dcfded4a46d03571b424e48011c9c54423694a2e548cade209")


def test_nu_star_support_examples():
    nu = nu_star(2.0)
    # zero coordinate kills a |y_l| form
    assert nu.evaluate(np.array([[0.0, 6.0, -6.0]]))[0] == 0.0
    # |F0| = 5 is outside the a-support
    y5 = np.array([[5.0 ** (1.0 / 3.0), 6.0, -6.0]])
    assert f0(y5)[0] == 5.0
    assert nu.evaluate(y5)[0] == 0.0
    # all six forms inside r*[1, 10] for r in [1.08, 1.3905]: the r-integrand
    # is exactly 1 there, so the value is at least log(1.03/0.8)
    y = 1.35 * np.array([[4.0, 4.0, -5.03]])
    assert abs(f0(y)[0]) <= 2.0
    assert nu.evaluate(y)[0] >= math.log(1.03 / 0.8) * (1.0 - 1e-9)


def test_nu_star_exact_invariance_on_support():
    nu = nu_star(2.0)
    pts = sample_support_candidates(2.0, 300, seed=9)
    base = nu.evaluate(pts)
    assert np.any(base > 0.0)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(nu.evaluate(pts[:, perm]), base)
    assert np.array_equal(nu.evaluate(-pts), base)


def test_nu_star_very_clean_bands():
    # no support point may leave the safe form bands or the box [-B, B]^3
    nu = nu_star(2.0)
    pts = sample_support_candidates(2.0, 100000, seed=3)
    v = nu.evaluate(pts)
    alive = pts[v > 0.0]
    assert len(alive) > 1000
    forms = _six_forms(alive)
    assert forms.min() > 0.49
    assert np.abs(alive).max() <= nu.B


def test_nu_star_one_object_per_R():
    assert nu_star(2) is nu_star(2.0)
    assert nu_star(2.0) is not nu_star(4.0)


def test_nu_star_monotone_in_R():
    nu2, nu4 = nu_star(2.0), nu_star(4.0)
    pts = sample_support_candidates(2.0, 20000, seed=3)
    v2, v4 = nu2.evaluate(pts), nu4.evaluate(pts)
    # the r-integrand is nonnegative, so a longer r-range only adds mass
    # (1e-8 slack for the independent r-rules)
    assert np.all(v4 >= v2 - 1e-8)
    assert v4.sum() > v2.sum()


def test_nu_star_support_volume_growth():
    vol4 = nu_star_support_volume(4.0, n=40000, seed=1)
    vol16 = nu_star_support_volume(16.0, n=40000, seed=1)
    assert 0.0 < vol4 < vol16
    assert vol16 / vol4 < 3.0


def test_sobolev_estimates_uniform_in_R():
    for k in (1, 2):
        vals = [sobolev_estimate(nu_star(R), k) for R in (2.0, 8.0, 32.0)]
        assert all(v > 0.0 and math.isfinite(v) for v in vals)
        assert max(vals) / min(vals) < 2.0


def test_sample_support_candidates_deterministic():
    a = sample_support_candidates(2.0, 1000, seed=7)
    b = sample_support_candidates(2.0, 1000, seed=7)
    assert np.array_equal(a, b)
    assert np.all(np.abs(f0(a)) < 3.0)
