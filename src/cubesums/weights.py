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
    "Weight",
    "bump",
    "f0",
    "nu_star",
    "ramp",
    "sample_support_candidates",
    "step",
]

# row x node cells per block of the r-integral.  2^15 cells make each float64
# temporary 256 KB, which stays in cache; with 512 KB blocks a fresh process
# page-faults heavily, as the allocator hands them back to the system after
# each chunk and faults them in again for the next
_CHUNK_CELLS = 1 << 15
# rows per block of Weight.evaluate, so its temporaries stay the size of one
# block whatever the batch; it equals quadrature's integrand block, whose
# calls therefore run as one block
_EVAL_ROWS = 1 << 14
# Gauss-Legendre order of each panel of the r-integral
_R_ORDER = 8
# the support reaches |y_l| = 11 R, so nu_star(R) needs 11 R finite; this is
# the largest such R
_R_MAX = sys.float_info.max / 11
# the (form, rise) bands of the w2 product in the order its factors are
# multiplied: form k's rise band t < 1, then its fall band t > 10
_BANDS = tuple((k, rise) for k in range(6) for rise in (True, False))
# the r-rule's probe: candidates per block, which is also the number of live
# rows it validates on, and the most candidates it takes before refusing R
_PROBE_ROWS = 512
_PROBE_CAP = 1 << 20
# the R_4 additive recurrence: alpha_j = g^-(j+1) for g the real root of
# x^5 = x + 1, whose points spread evenly over the unit 4-cube
_PROBE_ALPHA = 1.1673039782614187 ** -np.arange(1.0, 5.0)


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
    np.maximum(x, 1e-3, out=x)
    np.minimum(x, 1.0 - 1e-3, out=x)
    d = 1.0 - x
    np.divide(-1.0, x, out=x)
    np.exp(x, out=x)
    np.divide(-1.0, d, out=d)
    np.exp(d, out=d)
    d += x
    return np.divide(x, d, out=x)


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


def _w2_product(forms: np.ndarray, r: np.ndarray | float,
                bands=_BANDS, out: np.ndarray | None = None) -> np.ndarray:
    """prod_k w2(forms[:, k] / r) over the columns of forms, shape (n, m)
    for an (n, m) array r of scales and (n, 1) for the unit scale r = 1.0.

    Equal bit for bit to the product of bump("w2", forms[:, k][:, None] / r)
    taken in k order, given that `bands` holds every (k, rise) band that
    some cell reaches (t < 1 for rise, t > 10 for fall): a factor on the
    plateau [1, 10] is exactly 1.0, so only band factors are multiplied in,
    and t <= 1/2 and t >= 11 give 0.  At the unit scale t is forms[:, k]
    itself, with no division.

    The product starts from form 0's rise step taken on every cell, not
    from ones: _step_core clips its argument to [1e-3, 1 - 1e-3], where the
    step is exactly 0.0 or 1.0, so that factor is exactly 1.0 where t >= 1
    and the band's value where t < 1.  Every later band factor is multiplied
    into its band's cells, each step running on a gathered, contiguous
    operand, as in bump (numpy's SIMD exp may round strided input
    differently).  `out`, if given, receives the product.
    """
    unit = np.ndim(r) == 0
    if unit and r != 1.0:
        raise ValueError(f"a scalar scale must be 1.0, got {r}")
    if out is None:
        out = np.empty((len(forms), 1 if unit else np.shape(r)[1]))
    t = None if unit else np.empty_like(out)

    def quotient(k):
        return forms[:, k, None] if unit else np.divide(forms[:, k, None], r,
                                                        out=t)

    if bands and bands[0] == (0, True):
        np.multiply(quotient(0), 2.0, out=out)
        out -= 1.0
        _step_core(out)
        bands = bands[1:]
    else:
        out.fill(1.0)
    for k, rise in bands:
        q = quotient(k)
        band = q < 1.0 if rise else q > 10.0
        x = q[band]
        if not x.size:
            continue
        if rise:
            x *= 2.0
            x -= 1.0
        else:
            np.subtract(11.0, x, out=x)
        out[band] *= _step_core(x)
    return out


def _r_integral_fixed(forms: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      panels: int) -> np.ndarray:
    """int_{lo_i}^{hi_i} prod_k w2(forms[i,k]/r) dr/r, composite GL in log r
    with `panels` panels of order _R_ORDER.

    Row order changes no bit: a row's r-grid is formed elementwise from its
    lo and hi, and einsum reduces each row on its own.  So the rows are
    stably sorted by reach, the set of _BANDS their r-grid can touch, and
    each chunk of one reach forms only those bands, over whole chunk
    arrays.  The nodes r lie in [lo, hi] up to a few ulps, so the reach
    tests forms < hi (1 + 1e-9) for rise and forms > 10 lo (1 - 1e-9) for
    fall are a superset of the cells in each band.
    """
    x, w = gauss_rule(_R_ORDER)
    offs = ((np.arange(panels)[:, None] + x[None, :]) / panels).ravel()
    wts = np.tile(np.asarray(w), panels) / panels
    top, bottom = hi * (1.0 + 1e-9), 10.0 * (1.0 - 1e-9) * lo
    reach = np.zeros(len(forms), dtype=np.int64)
    for bit, (k, rise) in enumerate(_BANDS):
        reach[forms[:, k] < top if rise else forms[:, k] > bottom] |= 1 << bit
    perm = np.argsort(reach, kind="stable")
    reach, forms = reach[perm], forms[perm]
    log_lo = np.log(lo[perm])
    span = np.log(hi[perm]) - log_lo
    vals = np.empty(len(forms))
    rows = max(1, _CHUNK_CELLS // len(offs))
    prod = np.empty((rows, len(offs)))
    edges = np.flatnonzero(np.diff(reach, prepend=-1, append=-1))
    for start, end in itertools.pairwise(edges):
        bands = [b for bit, b in enumerate(_BANDS) if reach[start] >> bit & 1]
        for c in range(start, end, rows):
            sl = slice(c, min(c + rows, end))
            r = np.multiply(span[sl, None], offs)
            r += log_lo[sl, None]
            np.exp(r, out=r)
            p = _w2_product(forms[sl], r, bands, prod[:len(r)])
            # einsum reduces each row on its own; a BLAS matrix-vector
            # product rounds differently with the batch size, and the orbit
            # walk in lattice needs nu(y) to be a pure function of y
            vals[sl] = np.einsum("ij,j->i", p, wts) * span[sl]
    out = np.empty(len(forms))
    out[perm] = vals
    return out


def _r_range(y: np.ndarray, R: float):
    """The sorted forms of the rows of y and the r-range [lo, hi] of their
    r-integral, with live = hi > lo: the integrand vanishes unless all six
    forms lie in r (1/2, 11) for some r in [1, R]."""
    forms = _six_forms(y)
    lo = np.maximum(forms[:, 5] / 11.0, 1.0)
    hi = np.minimum(2.0 * forms[:, 0], R)
    return forms, lo, hi, hi > lo


@lru_cache(maxsize=None)
def _r_rule_params(R: float) -> int:
    """Panel count for the r-integral, validated by panel doubling (target
    1e-9 absolute-ish agreement) on at least _PROBE_ROWS live rows of the
    deterministic probe, taken _PROBE_ROWS candidates at a time.

    Raises ValueError when the probe refuses R (above about 4.07e101), when
    _PROBE_CAP candidates hold fewer live rows, or when no count up to 64
    panels agrees with its double.
    """
    parts, n_live = [], 0
    for start in range(0, _PROBE_CAP, _PROBE_ROWS):
        forms, lo, hi, live = _r_range(
            _probe_points(R, start, _PROBE_ROWS), R)
        parts.append((forms[live], lo[live], hi[live]))
        n_live += np.count_nonzero(live)
        if n_live >= _PROBE_ROWS:
            break
    else:
        raise ValueError(f"no live probe point set to validate the r-rule "
                         f"at R={R}: {n_live} of {_PROBE_ROWS} rows live in "
                         f"{_PROBE_CAP} candidates")
    forms, lo, hi = map(np.concatenate, zip(*parts))
    panels = 8
    coarse = _r_integral_fixed(forms, lo, hi, panels)
    while panels <= 64:
        fine = _r_integral_fixed(forms, lo, hi, 2 * panels)
        if np.max(np.abs(coarse - fine)) <= 1e-9:
            return panels
        coarse, panels = fine, 2 * panels
    raise ValueError(f"no r-rule up to 64 panels converged at R={R}")


def _probe_points(R: float, start: int, n: int) -> np.ndarray:
    """Points start .. start + n - 1 of the r-rule's probe, laid out as
    sample_support_candidates lays out its draws, with no random numbers.

    Point k takes u = frac(0.5 + k alpha) of the R_4 recurrence: u_0 and
    u_1 give |y2| and |y3| log-uniformly on [1/2, 11R], y2 is negative iff
    u_2 < 1/2 and y3 iff frac(2 u_2) < 1/2, and u_3 places y1 across the
    exact interval where |F0| < 3.  Refuses R as the sampler does.
    """
    top = _support_top(R)
    k = np.arange(start, start + n, dtype=float)
    u = (0.5 + k[:, None] * _PROBE_ALPHA) % 1.0
    log_lo = math.log(0.5)
    yz = np.exp(log_lo + (math.log(top) - log_lo) * u[:, :2])
    yz[u[:, 2] < 0.5, 0] *= -1.0
    yz[(2.0 * u[:, 2]) % 1.0 < 0.5, 1] *= -1.0
    return _with_y1(yz, u[:, 3])


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
        """nu at each row of an (N, 3) array, as an (N,) array; any other
        shape raises ValueError.  The rows go through in blocks of
        _EVAL_ROWS, which changes no bit since nu is row-pure."""
        R = self.R
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"evaluate takes an (N, 3) array of points, "
                             f"got shape {pts.shape}")
        out = np.zeros(len(pts))
        for start in range(0, len(pts), _EVAL_ROWS):
            rows = slice(start, start + _EVAL_ROWS)
            w0v = bump("w0", f0(pts[rows]))
            alive = w0v > 0.0
            if not alive.any():
                continue
            forms, lo, hi, live = _r_range(pts[rows][alive], R)
            if live.any():
                vals = np.zeros(len(forms))
                vals[live] = _r_integral_fixed(forms[live], lo[live],
                                               hi[live], _r_rule_params(R))
                out[rows][alive] = w0v[alive] * vals
        return out


def nu_star(R: float) -> Weight:
    """The Weight of parameter R, one object per value of R, so nu_star(2)
    is nu_star(2.0) and every caller shares the memo entries keyed on it."""
    return _nu_star(float(R))  # lru_cache keys the int 2 apart from 2.0


_nu_star = lru_cache(maxsize=None)(Weight)


def sample_support_candidates(R: float, n: int, seed: int = 0) -> np.ndarray:
    """Random points concentrated where nu_star(R) can be nonzero.

    (y2, y3) are drawn log-uniformly on [1/2, 11R] with random signs; y1 is
    then drawn uniformly from the exact interval making |F0| < 3.  Raises
    ValueError naming R when R is not a positive number, and when 2 (11R)^3
    overflows a float, that is for R above cbrt(max float / 2) / 11, about
    4.07e101.
    """
    top = _support_top(R)
    rng = np.random.default_rng(seed)
    u = rng.uniform(math.log(0.5), math.log(top), size=(n, 2))
    yz = np.exp(u) * rng.choice([-1.0, 1.0], size=(n, 2))
    return _with_y1(yz, rng.uniform(0.0, 1.0, size=n))


def _support_top(R: float) -> float:
    """11 R as a float, the largest |y_l| on the support; ValueError naming
    R when R is not a positive number or 2 (11R)^3 is not a finite float."""
    try:
        top = 11.0 * float(R)  # Python floats overflow to inf, no warning
    except OverflowError:  # an int past the float range
        top = math.inf
    if not top > 0.0:  # NaN fails this test too
        raise ValueError(f"R={R} is not a positive number")
    if not math.isfinite(2.0 * top * top * top):
        raise ValueError(f"R={R} puts 2 (11R)^3 past the largest float")
    return top


def _with_y1(yz: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Points (y1, y2, y3) for the rows (y2, y3) of yz, with y1 at fraction
    u in [0, 1) of the exact interval where |F0| < 3."""
    s = yz[:, 0] ** 3 + yz[:, 1] ** 3
    lo, hi = np.cbrt(-3.0 - s), np.cbrt(3.0 - s)
    return np.column_stack([lo + (hi - lo) * u, yz])
