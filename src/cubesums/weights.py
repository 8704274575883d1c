"""Smooth compactly supported weights on R^3 for cube-sum counting.

The basic cutoffs are exp-based smoothsteps: ramp(x) = exp(-1/x) for x > 0,
step = ramp(x)/(ramp(x)+ramp(1-x)), then

    w0(t) = step(3 - |t|)            (1 on [-2,2], 0 outside (-3,3))
    w2(t) = step(2t - 1) step(11 - t) (1 on [1,10], 0 outside (1/2,11))

The one weight is nu_star(R), the Weight object of parameter R: it integrates
the product of w2 over the six linear forms |y_l|, |y_i + y_j| against dr/r
for r in [1, R], times w0(F0(y)).  Its support avoids all six hyperplanes
y_l = 0, y_i + y_j = 0 (very clean), is S3-symmetric and even, lies in
1/2 <= ||y||_inf <= 11R, and forces |F0(y)| < 3.  B, a_support and evaluate
all follow from R, so no Weight can disagree with its R.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .quadrature import gauss_rule

__all__ = [
    "BumpSpec",
    "DEFAULT_BUMPS",
    "Weight",
    "bump",
    "f0",
    "nu_star",
    "nu_star_support_volume",
    "ramp",
    "sample_support_candidates",
    "sobolev_estimate",
    "step",
]

# row x node cells per block of the r-integral.  2^15 cells make each float64
# temporary 256 KB, which stays in cache; with 512 KB blocks a fresh process
# page-faults heavily, as the allocator hands them back to the system after
# each chunk and faults them in again for the next
_CHUNK_CELLS = 1 << 15
# the support reaches |y_l| = 11 R, so nu_star(R) needs 11 R finite; this is
# the largest such R
_R_MAX = sys.float_info.max / 11


def f0(y: np.ndarray) -> np.ndarray:
    """Sum of cubes of the last axis.

    The cubes are added in increasing-magnitude order, which makes the float
    result exactly invariant under coordinate permutations and exactly odd
    under y -> -y (IEEE addition commutes with global negation).
    """
    arr = np.asarray(y, dtype=float)
    c = arr * arr * arr  # explicit multiplies: exactly odd, unlike pow()
    order = np.argsort(np.abs(c), axis=-1, kind="stable")
    d = np.take_along_axis(c, order, axis=-1)
    # a row holding both +inf and -inf sums to nan, which every caller
    # treats as outside the support
    with np.errstate(invalid="ignore"):
        return (d[..., 0] + d[..., 1]) + d[..., 2]


def ramp(x):
    """exp(-1/x) for x > 0, else 0; smooth on all of R."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    m = arr > 0
    out[m] = np.exp(-1.0 / arr[m])
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def step(x):
    """Smooth 0-to-1 transition on [0, 1]."""
    arr = np.array(x, dtype=float, ndmin=1)  # a copy: _step_core overwrites it
    out = _step_core(arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def _step_core(x: np.ndarray) -> np.ndarray:
    """step(x) = ramp(x) / (ramp(x) + ramp(1 - x)), in place on a float array.

    x is clipped to [1e-3, 1 - 1e-3] first, which changes no value: below
    x = 1/745 exp(-1/x) underflows to exactly 0, so step is exactly 0 there,
    and above 1 - 1/745 the other ramp does, so step is exactly 1.
    """
    np.clip(x, 1e-3, 1.0 - 1e-3, out=x)
    d = 1.0 - x
    np.divide(-1.0, x, out=x)
    np.exp(x, out=x)
    np.divide(-1.0, d, out=d)
    np.exp(d, out=d)
    d += x
    return np.divide(x, d, out=x)


@dataclass(frozen=True)
class BumpSpec:
    """Plateau and support intervals of the named cutoffs."""

    w0_plateau: tuple[float, float] = (-2.0, 2.0)
    w0_support: tuple[float, float] = (-3.0, 3.0)
    w2_plateau: tuple[float, float] = (1.0, 10.0)
    w2_support: tuple[float, float] = (0.5, 11.0)


DEFAULT_BUMPS = BumpSpec()


def bump(kind: str, t):
    """Evaluate a named cutoff; only the transition bands need any exp."""
    arr = np.asarray(t, dtype=float)
    scalar = np.isscalar(t) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    if kind == "w0":
        at = np.abs(arr)
        out[at <= 2.0] = 1.0
        mid = (at > 2.0) & (at < 3.0)
        if mid.any():
            out[mid] = _step_core(3.0 - at[mid])
    elif kind == "w2":
        out[(arr >= 1.0) & (arr <= 10.0)] = 1.0
        rise = (arr > 0.5) & (arr < 1.0)
        if rise.any():
            out[rise] = _step_core(2.0 * arr[rise] - 1.0)
        fall = (arr > 10.0) & (arr < 11.0)
        if fall.any():
            out[fall] = _step_core(11.0 - arr[fall])
    else:
        raise ValueError(f"unknown bump kind {kind!r}")
    return float(out[0]) if scalar else out


def _rotating_network(pairs) -> tuple[tuple[int, int, int], ...]:
    """A comparator network over keys 0..5 as (lo, hi, spare) steps on seven
    rows: the min goes to the spare row, the max overwrites row lo, and row
    hi is the next spare.  Rows are numbered so that key k ends in row k,
    which leaves the sorted keys in rows 0..5 and starts row 6 spare."""
    where = list(range(7))  # where[k]: row of key k; where[6]: spare row
    steps = []
    for i, j in pairs:
        steps.append((where[i], where[j], where[6]))
        where[i], where[j], where[6] = where[6], where[i], where[j]
    label = {row: k for k, row in enumerate(where)}
    return tuple((label[a], label[b], label[s]) for a, b, s in steps)


# Knuth's 12-comparator sorting network for six keys (TAOCP vol. 3, 5.3.4)
_SORT6 = _rotating_network(((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3),
                            (2, 5), (0, 1), (2, 3), (4, 5), (1, 2), (3, 4)))


def _six_forms(y: np.ndarray) -> np.ndarray:
    """|y_l| and |y_i+y_j|, sorted per row so the value is exactly invariant
    under coordinate permutations and global sign flips.

    The forms sit in the contiguous rows of a (6, n) buffer, and a min/max
    network sorts them with whole-row operations; the result is an (n, 6)
    view whose columns are those rows.  On finite non-negative floats min
    and max return exactly the values np.sort places, so the bits match a
    per-row sort; y must be finite (a NaN form would not sort last, and
    nu_star never lets one reach here).  The network's spare row is a
    separate array, so no temporary is larger than the result.
    """
    buf = np.empty((6, len(y)))
    np.abs(y.T, out=buf[:3])
    for row, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)), start=3):
        np.add(y[:, i], y[:, j], out=buf[row])
        np.abs(buf[row], out=buf[row])
    _sort_six_rows([*buf, np.empty(len(y))])
    return buf.T


def _sort_six_rows(rows: list[np.ndarray]) -> None:
    """Sort six equal-length arrays elementwise in place, so that rows[k]
    holds the k-th smallest, using rows[6] as the spare row."""
    for lo, hi, spare in _SORT6:
        np.minimum(rows[lo], rows[hi], out=rows[spare])
        np.maximum(rows[lo], rows[hi], out=rows[lo])


def _w2_product(forms: np.ndarray, r: np.ndarray | float) -> np.ndarray:
    """prod_k w2(forms[:, k] / r) over the columns of forms, shape (n, m)
    for an (n, m) array r of scales and (n, 1) for a scalar r.

    Equal bit for bit to the product of bump("w2", forms[:, k][:, None] / r)
    taken in k order: a factor on the plateau [1, 10] is exactly 1.0, so only
    the band factors are multiplied in, and t <= 1/2 and t >= 11 give 0.
    Column k is divided and masked only on the rows whose scales can reach a
    band: t < 1 needs forms[i, k] < max_j r[i, j], and t > 10 needs
    forms[i, k] > 10 min_j r[i, j], which the factor 1 - 1e-12 keeps a
    superset of under rounding.  Each band step runs on a gathered,
    contiguous operand, as in bump (numpy's SIMD exp may round strided input
    differently).  With a scalar r each band factor is multiplied straight
    into its rows of the one output column.
    """
    per_row = np.ndim(r) == 2
    out = np.ones((len(forms), np.shape(r)[1] if per_row else 1))
    r_max = r.max(axis=1) if per_row else r
    fall_min = 10.0 * (1.0 - 1e-12) * (r.min(axis=1) if per_row else r)
    for k in range(forms.shape[1]):
        f = forms[:, k]
        for rows, rise in ((np.flatnonzero(f < r_max), True),
                           (np.flatnonzero(f > fall_min), False)):
            if not rows.size:
                continue
            t = f[rows, None] / (r[rows] if per_row else r)
            band = t < 1.0 if rise else t > 10.0
            x = t[band]
            if rise:
                x *= 2.0
                x -= 1.0
            else:
                np.subtract(11.0, x, out=x)
            if per_row:
                sub = out[rows]
                sub[band] *= _step_core(x)
                out[rows] = sub
            else:
                out[rows[band[:, 0]], 0] *= _step_core(x)
    return out


def _r_integral_fixed(forms: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      panels: int, order: int) -> np.ndarray:
    """int_{lo_i}^{hi_i} prod_k w2(forms[i,k]/r) dr/r, composite GL in log r."""
    x, w = gauss_rule(order)
    offs = ((np.arange(panels)[:, None] + x[None, :]) / panels).ravel()
    wts = np.tile(np.asarray(w), panels) / panels
    out = np.empty(len(forms))
    rows = max(1, _CHUNK_CELLS // len(offs))
    for start in range(0, len(forms), rows):
        sl = slice(start, start + rows)
        span = np.log(hi[sl]) - np.log(lo[sl])
        r = np.exp(np.log(lo[sl])[:, None] + span[:, None] * offs[None, :])
        prod = _w2_product(forms[sl], r)
        # einsum reduces each row on its own; a BLAS matrix-vector product
        # rounds differently with the batch size, and the orbit walk in
        # lattice needs nu(y) to be a pure function of y
        out[sl] = np.einsum("ij,j->i", prod, wts) * span
    return out


@lru_cache(maxsize=None)
def _r_rule_params(R: float) -> tuple[int, int]:
    """Panel count for the r-integral, validated by panel doubling on a
    deterministic probe set (target 1e-9 absolute-ish agreement)."""
    pts = sample_support_candidates(R, 512, seed=1234)
    forms = _six_forms(pts)
    lo = np.maximum(forms[:, 5] / 11.0, 1.0)
    hi = np.minimum(2.0 * forms[:, 0], R)
    live = hi > lo
    forms, lo, hi = forms[live], lo[live], hi[live]
    order = 8
    panels = 8
    while panels <= 64:
        a = _r_integral_fixed(forms, lo, hi, panels, order)
        b = _r_integral_fixed(forms, lo, hi, 2 * panels, order)
        if np.max(np.abs(a - b), initial=0.0) <= 1e-9:
            return panels, order
        panels *= 2
    return panels, order


@dataclass(frozen=True, eq=False)
class Weight:
    """The cusp-parameter weight nu_star(R): w0(F0) times the dr/r average
    of the six w2-cutoff linear forms over r in [1, R].

    R is the only field.  a_support bounds |F0| on the support (the w0
    factor), and every |y_l| on the support lies in [1/B, B] for
    B = ceil(11 R).  A weight hashes by identity, so the lru_caches keyed on
    it tell two objects of the same R apart; nu_star(R) hands out one per R.
    """

    R: float
    name: ClassVar[str] = "nu_star"
    a_support: ClassVar[float] = 3.0

    def __post_init__(self):
        if not 2 <= self.R <= _R_MAX:
            raise ValueError(f"R must be a finite number >= 2 and "
                             f"<= {_R_MAX:.4g}, got {self.R}")

    @property
    def B(self) -> int:
        return math.ceil(11 * self.R)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """nu at each row of an (N, 3) array, as an (N,) array."""
        R = self.R
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(len(pts))
        w0v = bump("w0", f0(pts))
        alive = w0v > 0.0
        if not alive.any():
            return out
        y = pts[alive]
        forms = _six_forms(y)
        # integrand vanishes unless all forms lie in r*(1/2, 11)
        lo = np.maximum(forms[:, 5] / 11.0, 1.0)
        hi = np.minimum(2.0 * forms[:, 0], R)
        live = hi > lo
        if live.any():
            panels, order = _r_rule_params(R)
            vals = np.zeros(len(y))
            vals[live] = _r_integral_fixed(forms[live], lo[live], hi[live],
                                           panels, order)
            out[alive] = w0v[alive] * vals
        return out


def nu_star(R: float) -> Weight:
    """The Weight of parameter R, one object per value of R, so nu_star(2)
    is nu_star(2.0) and every caller shares the memo entries keyed on it."""
    return _nu_star(float(R))  # lru_cache keys the int 2 apart from 2.0


_nu_star = lru_cache(maxsize=None)(Weight)


def sample_support_candidates(R: float, n: int, seed: int = 0) -> np.ndarray:
    """Random points concentrated where nu_star(R) can be nonzero.

    (y2, y3) are drawn log-uniformly on [1/2, 11R] with random signs; y1 is
    then drawn uniformly from the exact interval making |F0| < 3.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(math.log(0.5), math.log(11 * R), size=(n, 2))
    yz = np.exp(u) * rng.choice([-1.0, 1.0], size=(n, 2))
    s = yz[:, 0] ** 3 + yz[:, 1] ** 3
    lo = np.cbrt(-3.0 - s)
    hi = np.cbrt(3.0 - s)
    y1 = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=n)
    return np.column_stack([y1, yz])


def nu_star_support_volume(R: float, n: int = 200_000, seed: int = 0,
                           y1_samples: int = 16) -> float:
    """Monte-Carlo volume of {y: nu_star(R)(y) > 0}.

    Importance-samples (y2, y3) log-uniformly, then measures the exact
    y1-interval where |F0| < 3 and the sampled fraction of it on which some
    r in [1, R] puts all six forms inside the w2 support.
    """
    rng = np.random.default_rng(seed)
    lo_u, hi_u = math.log(0.5), math.log(11 * R)
    du = hi_u - lo_u
    u = rng.uniform(lo_u, hi_u, size=(n, 2))
    yz = np.exp(u) * rng.choice([-1.0, 1.0], size=(n, 2))
    s = yz[:, 0] ** 3 + yz[:, 1] ** 3
    a1 = np.cbrt(-3.0 - s)
    b1 = np.cbrt(3.0 - s)
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


@lru_cache(maxsize=None)
def sobolev_estimate(weight: Weight, k: int, n_points: int = 500,
                     h: float = 0.02, seed: int = 7) -> float:
    """Sampled max over |alpha| <= k of sup |partial^alpha nu|.

    Finite differences with spacing h at random near-support points; a
    heuristic report, not a certified bound.
    """
    if not 0 <= k <= 4:
        raise ValueError("k must be in 0..4")
    pts = sample_support_candidates(weight.R, n_points, seed=seed)
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
