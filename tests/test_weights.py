"""Smooth weights: bumps, the symmetric form f0, and the nu* family."""

import hashlib
import itertools
import math
import sys

import numpy as np
import pytest

from cubesums.weights import (
    DEFAULT_BUMPS,
    Weight,
    bump,
    f0,
    is_nu_star,
    nu_star,
    nu_star_support_volume,
    ramp,
    sample_support_candidates,
    sobolev_estimate,
    step,
    _CHUNK_CELLS,
    _R_MAX,
    _r_integral_fixed,
    _r_rule_params,
    _six_forms,
    _sort_six_rows,
    _w2_product,
)
from cubesums import weights


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


def _step_by_masks(x):
    # definitional: 0 on x <= 0, 1 on x >= 1, the ramp ratio between
    out = np.where(x <= 0.0, 0.0, 1.0)
    mid = (x > 0.0) & (x < 1.0)
    with np.errstate(over="ignore"):  # -1/x is -inf at subnormal x
        a = np.exp(-1.0 / x[mid])
    out[mid] = a / (a + np.exp(-1.0 / (1.0 - x[mid])))
    return out


def test_step_clipping_changes_no_bit():
    # around 0 and 1, the clip points 1e-3 and 1 - 1e-3, and the underflow
    # points 1/745 and 1 - 1/745, where one ramp becomes exactly 0
    rng = np.random.default_rng(29)
    x = np.concatenate([
        [-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-3, 1.0 - 1e-3,
         1.0 / 745, 1.0 - 1.0 / 745, 0.5, 1.0, 2.0, np.inf],
        *(c + np.linspace(-4e-4, 4e-4, 2001)
          for c in (0.0, 1e-3, 1.0 / 745, 1.0 - 1.0 / 745, 1.0 - 1e-3, 1.0)),
        rng.uniform(-0.5, 1.5, 20000)])
    assert step(x).tobytes() == _step_by_masks(x).tobytes()
    assert step(0.0) == 0.0 and step(1e-3) == 0.0 and step(1.0 - 1e-3) == 1.0


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
    # B = ceil(11 R) needs 11 R finite too; _R_MAX is the largest such R
    assert nu_star(_R_MAX).B >= 11 * _R_MAX
    for R in (math.inf, -math.inf, math.nan, math.nextafter(_R_MAX, math.inf),
              1e308, sys.float_info.max):
        with pytest.raises(ValueError, match="finite number >= 2"):
            nu_star(R)
    # a look-alike weight at such an R is told apart, not rejected
    look_alike = Weight(name="nu_star", R=1e308, B=1, clean=True,
                        very_clean=True, symmetric=True, a_support=3.0,
                        evaluate=lambda y: np.zeros(len(y)))
    assert not is_nu_star(look_alike)


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


def test_w2_product_equals_bump_product(monkeypatch):
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

    # the r-grids of _r_integral_fixed's own node layout, on r-ranges that
    # straddle 1/2, 1, 10 and 11 and on narrow ones where whole columns
    # stay on the plateau
    panels, order = _r_rule_params(2.0)
    seen = []

    def checked(forms, r):
        got = _w2_product(forms, r)
        assert np.array_equal(got, _w2_product_by_bump(forms, r))
        seen.append((forms, r))
        return got

    monkeypatch.setattr(weights, "_w2_product", checked)
    ranges = np.array([(0.4, 12.0), (0.45, 0.55), (0.9, 1.1), (9.5, 10.5),
                       (10.5, 11.5), (1.0, 1.05), (1.0, 2.0), (1.6, 2.0)])
    lo, hi = ranges[rng.integers(len(ranges), size=400)].T
    forms = np.sort(rng.choice(np.array([0.6, 1.02, 1.5, 3.0, 5.0, 10.2, 10.8,
                                         20.0]), size=(400, 6)), axis=1)
    forms[:200] = rng.uniform(0.3, 24.0, size=(200, 6))
    _r_integral_fixed(forms, lo, hi, panels, order)
    assert len(seen) > 1  # several chunks
    rows = np.concatenate([r for _, r in seen])
    for edge in (0.5, 1.0, 10.0, 11.0):
        assert np.any((rows.min(axis=1) < edge) & (rows.max(axis=1) > edge))
    t = np.concatenate([f[:, :, None] / r[:, None, :] for f, r in seen])
    in_band = ((t < 1.0) | (t > 10.0)).any(axis=2)  # (row, column)
    # rows with a band column beside a column that has no band cell
    assert np.any(in_band.any(axis=1) & ~in_band.all(axis=1))


def _six_forms_by_sort(y):
    # definitional: the six forms of each row, ordered by np.sort
    forms = np.column_stack([y, y[:, 0] + y[:, 1], y[:, 0] + y[:, 2],
                             y[:, 1] + y[:, 2]])
    return np.sort(np.abs(forms), axis=1)


def test_six_forms_equals_sorted_forms():
    rng = np.random.default_rng(23)
    random_rows = rng.normal(scale=5.0, size=(5000, 3))
    # ties and exact zeros, -0.0 among them, in every arrangement
    tied = np.array(list(itertools.product(
        (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5), repeat=3)))
    for y in (random_rows, tied, random_rows[:1], random_rows[:0]):
        got = _six_forms(y)
        assert got.shape == (len(y), 6)
        assert got.tobytes() == _six_forms_by_sort(y).tobytes()


def test_sort_six_rows_sorts_every_zero_one_pattern():
    # a comparator network sorts every input once it sorts every 0/1 input
    patterns = np.array(list(itertools.product((0.0, 1.0), repeat=6)))
    for lo, hi in ((0.0, 1.0), (0.5, 11.0), (1e-300, 1e300)):
        keys = lo + patterns * (hi - lo)
        rows = [*keys.T.copy(), np.empty(len(keys))]
        _sort_six_rows(rows)
        want = np.sort(keys, axis=1).T
        assert np.stack(rows[:6]).tobytes() == want.tobytes()


def test_nu_star_zero_on_non_finite_rows(monkeypatch):
    # NaN and infinite coordinates fail the w0 test, so they never reach the
    # sorting network (where a NaN would not sort last)
    nu = nu_star(2.0)
    pts = sample_support_candidates(2.0, 3000, seed=13)
    base = nu.evaluate(pts)
    assert np.count_nonzero(base) > 100
    bad = np.repeat(pts[np.flatnonzero(base)[:1]], 9, axis=0)
    for i, (col, v) in enumerate(itertools.product(
            range(3), (np.nan, np.inf, -np.inf))):
        bad[i, col] = v
    six_forms = weights._six_forms

    def finite_only(y):
        assert np.isfinite(y).all()
        return six_forms(y)

    monkeypatch.setattr(weights, "_six_forms", finite_only)
    got = nu.evaluate(np.concatenate([pts, bad]))
    assert np.array_equal(got[:len(pts)], base)
    assert got[len(pts):].tobytes() == np.zeros(len(bad)).tobytes()


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
