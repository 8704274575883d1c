"""Smooth weights: bumps, the symmetric form f0, and the nu* family."""

import functools
import hashlib
import itertools
import math
import re
import sys

import numpy as np
import pytest

from cubesums.weights import (
    Weight,
    bump,
    f0,
    nu_star,
    ramp,
    sample_support_candidates,
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
from cubesums.quadrature import gauss_rule
from conftest import traced_peak


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
        "w0": ((-2.0, 2.0), (-3.0, 3.0)),
        "w2": ((1.0, 10.0), (0.5, 11.0)),
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
    with pytest.raises(ValueError):
        nu_star(1.5)


def test_nu_star_rejects_non_finite_R():
    # B = ceil(11 R) needs 11 R finite too; _R_MAX is the largest such R
    assert nu_star(_R_MAX).B >= 11 * _R_MAX
    for R in (math.inf, -math.inf, math.nan, math.nextafter(_R_MAX, math.inf),
              1e308, sys.float_info.max):
        # a Weight is built only through its R, so no route skips the check
        for make in (nu_star, Weight):
            with pytest.raises(ValueError, match="finite number >= 2"):
                make(R)


def test_r_rule_probes_each_level_once(monkeypatch):
    # each doubling step reuses the finer integral as the next coarse one:
    # levels 8, 16, 32 and 64 at R = 2 (32 agrees with 64), and 128 too at
    # R = 4
    calls = []

    def counted(forms, lo, hi, panels):
        calls.append(panels)
        return integral(forms, lo, hi, panels)

    integral = weights._r_integral_fixed
    monkeypatch.setattr(weights, "_r_integral_fixed", counted)
    for R, panels, levels in ((2.0, 32, [8, 16, 32, 64]),
                              (4.0, 64, [8, 16, 32, 64, 128])):
        _r_rule_params.cache_clear()
        calls.clear()
        assert _r_rule_params(R) == panels
        assert calls == levels


def test_r_rule_refuses_what_it_cannot_validate(monkeypatch):
    # past R = 4.07e101 the probe draw refuses R; a live point of nu_star(2)
    # is live for every larger R, so evaluate reaches the r-rule, which
    # refuses without a RuntimeWarning
    pts = sample_support_candidates(2.0, 64, seed=3)
    assert np.count_nonzero(nu_star(2.0).evaluate(pts)) > 0
    with pytest.raises(ValueError, match=r"R=1e\+300 puts 2 \(11R\)\^3"):
        nu_star(1e300).evaluate(pts)
    # an r-integral that never settles is refused too, not given 128 panels
    monkeypatch.setattr(weights, "_r_integral_fixed",
                        lambda forms, lo, hi, panels: np.full(len(forms),
                                                              1.0 / panels))
    with pytest.raises(ValueError, match="up to 64 panels .* R=3.0"):
        _r_rule_params.__wrapped__(3.0)  # past any memo of R = 3
    # and so is a probe with too few live rows: with no live row, the probe
    # takes candidates up to its cap (made small here) and refuses R
    blocks = []

    def dead(R, start, n):
        blocks.append(start)
        return np.zeros((n, 3))

    monkeypatch.setattr(weights, "_probe_points", dead)
    monkeypatch.setattr(weights, "_PROBE_CAP", 4 * weights._PROBE_ROWS)
    with pytest.raises(ValueError, match=r"no live probe point .* R=3.0"):
        _r_rule_params.__wrapped__(3.0)
    assert blocks == [0, 512, 1024, 1536]


# the panel count at every R that the probe was checked at: R = 2 needs 32
# panels, and from R = 2.25 on 64, since a row's r-range spans at most a
# factor of 22
_R_RULE_FROZEN = ((2.0, 32), (2.25, 64), (2.5, 64), (3.0, 64), (3.5, 64),
                  (4.0, 64), (5.0, 64), (7.5, 64), (8.0, 64), (16.0, 64),
                  (22.0, 64), (1e3, 64), (1e10, 64), (1e50, 64), (1e100, 64),
                  (4e101, 64))


def test_r_rule_frozen_panel_counts():
    for R, panels in _R_RULE_FROZEN:
        assert _r_rule_params(R) == panels, R


def test_r_rule_validates_on_512_live_rows(monkeypatch):
    # at R = 1e100 about 1 candidate in 250 is live, so the probe takes
    # blocks until 512 rows are, and every level integrates all of them
    rows = []
    integral = weights._r_integral_fixed

    def sized(forms, lo, hi, panels):
        rows.append(len(forms))
        return integral(forms, lo, hi, panels)

    monkeypatch.setattr(weights, "_r_integral_fixed", sized)
    for R in (1e100, 4e101):
        rows.clear()
        assert _r_rule_params.__wrapped__(R) == 64
        assert len(set(rows)) == 1 and rows[0] >= 512
        forms, lo, hi, live = weights._r_range(
            weights._probe_points(R, 0, 512), R)
        assert 0 < np.count_nonzero(live) < 16  # one block would not do


def test_probe_points_lie_where_the_sampler_draws():
    # blocks are slices of one sequence, points are finite with |F0| < 3 and
    # |y2|, |y3| in [1/2, 11R], and each sign quadrant of (y2, y3) is hit
    # about equally
    R = 2.0
    whole = weights._probe_points(R, 0, 2048)
    assert np.array_equal(weights._probe_points(R, 512, 1024),
                          whole[512:1536])
    assert np.isfinite(whole).all() and np.all(np.abs(f0(whole)) < 3.0)
    yz = np.abs(whole[:, 1:])
    assert yz.min() >= 0.5 and yz.max() <= 11.0 * R
    quadrants = np.unique(np.sign(whole[:, 1:]), axis=0, return_counts=True)
    assert len(quadrants[1]) == 4 and quadrants[1].min() > 400
    with pytest.raises(ValueError, match=r"R=1e\+300 puts 2 \(11R\)\^3"):
        weights._probe_points(1e300, 0, 512)
    with pytest.raises(ValueError, match="R=0.0 is not a positive"):
        weights._probe_points(0.0, 0, 512)


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
    panels = _r_rule_params(2.0)
    rows = _CHUNK_CELLS // (panels * weights._R_ORDER)
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
    panels = _r_rule_params(2.0)
    seen = []

    def checked(forms, r, *args):
        got = _w2_product(forms, r, *args)
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
    _r_integral_fixed(forms, lo, hi, panels)
    assert len(seen) > 1  # several chunks
    rows = np.concatenate([r for _, r in seen])
    for edge in (0.5, 1.0, 10.0, 11.0):
        assert np.any((rows.min(axis=1) < edge) & (rows.max(axis=1) > edge))
    t = np.concatenate([f[:, :, None] / r[:, None, :] for f, r in seen])
    in_band = ((t < 1.0) | (t > 10.0)).any(axis=2)  # (row, column)
    # rows with a band column beside a column that has no band cell
    assert np.any(in_band.any(axis=1) & ~in_band.all(axis=1))


def _r_integral_by_bump(forms, lo, hi, panels):
    # definitional: every row's r-grid at once, in _r_integral_fixed's node
    # layout, the bump product, and a weighted sum per row
    x, w = gauss_rule(weights._R_ORDER)
    offs = ((np.arange(panels)[:, None] + x[None, :]) / panels).ravel()
    wts = np.tile(np.asarray(w), panels) / panels
    span = np.log(hi) - np.log(lo)
    r = np.exp(np.log(lo)[:, None] + span[:, None] * offs[None, :])
    return np.einsum("ij,j->i", _w2_product_by_bump(forms, r), wts) * span


def _checked_chunks(monkeypatch):
    """Patch _w2_product to check each chunk of _r_integral_fixed against
    the bump product, and that its bands hold every band a cell reaches;
    returns the list of the chunks' bands."""
    seen = []

    def checked(forms, r, bands, out):
        got = _w2_product(forms, r, bands, out)
        assert np.array_equal(got, _w2_product_by_bump(forms, r))
        t = forms[:, :, None] / r[:, None, :]
        for k, rise in weights._BANDS:
            if np.any(t[:, k] < 1.0 if rise else t[:, k] > 10.0):
                assert (k, rise) in bands
        seen.append(tuple(bands))
        return got

    monkeypatch.setattr(weights, "_w2_product", checked)
    return seen


def test_r_integral_reach_at_band_edges(monkeypatch):
    # forms a few ulps either side of hi and of 10 lo, on r-ranges as narrow
    # as a few ulps, where the rounded r-grid can step past lo or hi
    rng = np.random.default_rng(31)
    n = 1200
    lo = rng.uniform(1.0, 2.0, n)
    hi = lo + np.where(np.arange(n) % 2 == 0, rng.integers(1, 5, n)
                       * np.spacing(lo), rng.uniform(1e-6, 0.3, n) * lo)
    edge = np.where(rng.random((n, 6)) < 0.5, hi[:, None], 10.0 * lo[:, None])
    forms = edge + rng.integers(-4, 5, (n, 6)) * np.spacing(edge)
    panels = _r_rule_params(2.0)
    seen = _checked_chunks(monkeypatch)
    got = _r_integral_fixed(forms, lo, hi, panels)
    assert np.array_equal(got, _r_integral_by_bump(forms, lo, hi, panels))
    assert len(seen) > 1
    assert {b for bands in seen for b in bands} == set(weights._BANDS)


def test_r_integral_groups_rows_by_reach(monkeypatch):
    # rows of many reach groups in one call, plateau rows that reach no band
    # among them, sorted and unsorted forms: every value is the bump
    # product's, and so is each row's position in the output
    rng = np.random.default_rng(41)
    n = 3000
    lo = rng.uniform(0.5, 2.0, n)
    hi = lo * rng.uniform(1.0001, 3.0, n)
    forms = rng.uniform(0.3, 24.0, (n, 6))
    forms[::2].sort(axis=1)
    plateau = np.arange(n) % 5 == 0
    forms[plateau] = rng.uniform(1.01 * hi[plateau, None],
                                 0.99 * 10.0 * lo[plateau, None],
                                 (plateau.sum(), 6))
    panels = _r_rule_params(2.0)
    seen = _checked_chunks(monkeypatch)
    got = _r_integral_fixed(forms, lo, hi, panels)
    assert np.array_equal(got, _r_integral_by_bump(forms, lo, hi, panels))
    assert len(set(seen)) > 20 and () in seen
    assert {b for bands in seen for b in bands} == set(weights._BANDS)


def test_nu_star_evaluate_commutes_with_row_order():
    nu = nu_star(2.0)
    pts = sample_support_candidates(2.0, 20000, seed=5)
    whole = nu.evaluate(pts)
    assert np.count_nonzero(whole) > 1000
    perm = np.random.default_rng(37).permutation(len(pts))
    assert np.array_equal(nu.evaluate(pts[perm]), whole[perm])


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
    bad = np.repeat(pts[np.flatnonzero(base)[:1]], 10, axis=0)
    for i, (col, v) in enumerate(itertools.product(
            range(3), (np.nan, np.inf, -np.inf))):
        bad[i, col] = v
    bad[9] = [np.inf, -np.inf, 1.0]  # inf - inf inside f0
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


def test_nu_star_evaluate_takes_only_n_by_3_arrays():
    nu = nu_star(2.0)
    for shape in ((2, 2, 3), (3,), (4, 2)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            nu.evaluate(np.ones(shape))


def test_nu_star_evaluate_memory_is_bounded_by_its_block():
    # evaluate works in row blocks, so its temporaries do not grow with the
    # batch: 200,000 points trace a few MB beyond the 1.6 MB output
    nu = nu_star(2.0)
    pts = sample_support_candidates(2.0, 200_000, seed=7)
    _r_rule_params(nu.R)
    assert traced_peak(lambda: nu.evaluate(pts)) < 8 * 2 ** 20


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


def nu_star_support_volume(R, n=200_000, seed=0):
    """Monte-Carlo volume of {y: nu_star(R)(y) > 0}.

    Importance-samples (y2, y3) log-uniformly, then measures the exact
    y1-interval where |F0| < 3 and the fraction of 16 midpoint samples of it
    on which some r in [1, R] puts all six forms inside the w2 support.
    """
    y1_samples = 16
    yz = sample_support_candidates(R, n, seed)[:, 1:]
    s = yz[:, 0] ** 3 + yz[:, 1] ** 3
    a1, b1 = np.cbrt(-3.0 - s), np.cbrt(3.0 - s)
    du = math.log(11 * R) - math.log(0.5)
    length = b1 - a1
    t = (np.arange(y1_samples) + 0.5) / y1_samples
    y1 = a1[:, None] + length[:, None] * t[None, :]
    pts = np.empty((n * y1_samples, 3))
    pts[:, 0] = y1.ravel()
    pts[:, 1] = np.repeat(yz[:, 0], y1_samples)
    pts[:, 2] = np.repeat(yz[:, 1], y1_samples)
    forms = _six_forms(pts)
    ok = (np.minimum(2.0 * forms[:, 0], R)
          > np.maximum(forms[:, 5] / 11.0, 1.0)).reshape(n, y1_samples)
    frac = ok.mean(axis=1)
    # 4 sign quadrants; |y2 y3| du^2 undoes the log-uniform importance law
    est = 4.0 * du**2 * np.abs(yz[:, 0] * yz[:, 1]) * length * frac
    return float(est.mean())


# central finite-difference stencils per derivative order
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


@functools.lru_cache(maxsize=None)
def sobolev_estimate(weight, k):
    """Sampled max over |alpha| <= k of sup |partial^alpha nu|.

    Finite differences with spacing h = 0.02 at 500 random near-support
    points (seed 7); a heuristic report, not a certified bound.
    """
    h = 0.02
    pts = sample_support_candidates(weight.R, 500, seed=7)
    best = 0.0
    for alpha in itertools.product(range(k + 1), repeat=3):
        if sum(alpha) > k:
            continue
        acc = np.zeros(len(pts))
        scale = h ** sum(alpha)
        for offs_coeffs in itertools.product(*(
                zip(*_STENCILS[a]) for a in alpha)):
            offset = np.array([oc[0] for oc in offs_coeffs], dtype=float)
            coeff = math.prod(oc[1] for oc in offs_coeffs)
            acc += coeff * weight.evaluate(pts + h * offset)
        best = max(best, float(np.max(np.abs(acc))) / scale)
    return best


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


def test_sampler_refuses_an_R_whose_cubes_overflow():
    # 2 (11R)^3 is finite up to cbrt(max float / 2) / 11, about 4.07e101
    top = np.cbrt(sys.float_info.max / 2) / 11
    for R in (1e150, _R_MAX, math.nextafter(top, math.inf), 10 ** 400):
        with pytest.raises(ValueError, match="2 \\(11R\\)\\^3"):
            sample_support_candidates(R, 512, seed=1234)
    # and an R that is no positive number is refused by name
    for R in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError, match=f"R={R} is not a positive"):
            sample_support_candidates(R, 512, seed=1234)
    for R in (4e101, math.nextafter(top, 0.0)):
        pts = sample_support_candidates(R, 512, seed=1234)
        assert pts.shape == (512, 3) and np.isfinite(pts).all()


def test_sample_support_candidates_deterministic():
    a = sample_support_candidates(2.0, 1000, seed=7)
    b = sample_support_candidates(2.0, 1000, seed=7)
    assert np.array_equal(a, b)
    assert np.all(np.abs(f0(a)) < 3.0)
