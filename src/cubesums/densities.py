"""Real (archimedean) densities of x^3+y^3+z^3 = a against nu_star(R).

sigma_inf(a, X, nu) is the surface integral of nu(y)/(3 y1^2) over the
solution surface F0(y) = a/X^3, with y1 solved by real cube root; by the
rescaling law the value depends on (a, X) only through a-tilde = a/X^3.

Two routes compute it:

* "direct": the literal 2-d adaptive quadrature over (y2, y3) in [-B, B]^2,
  evaluating nu (and its inner r-integral) at every node.
* "auto", the fast route: Fubini plus the scaling y -> r y turn sigma into
  w0(a-tilde) * int_1^R S1(a-tilde / r^3) dr/r, where S1(b) is the
  R-independent surface integral of the plain six-form w2-product chi.
  S1 is tabulated once on a fine grid (validated off-grid against direct
  quadrature of chi) and kept in the disk store of cache.py; every sigma
  for every R is then a cheap 1-d rule.

Integrals over the full 3-d support (mixed moment, L^2 norm) decompose as an
outer 2-d adaptive integral over (y2, y3) and an inner Gauss rule over the
exact y1-interval on which |F0| stays below a_support = 3, less the dead
strip |y1| <= 1/2; this avoids losing the thin slab at large ||y|| and keeps
the mixed moment an honest cross-check (it never touches S1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING

import numpy as np

from . import cache
from .quadrature import adaptive_integrate, gauss_rule, scaled_gauss_nodes
from .weights import (DEFAULT_BUMPS, Weight, bump, f0, nu_star, _six_forms,
                      _w2_product, sobolev_estimate)

if TYPE_CHECKING:
    # importing scipy.interpolate costs more time and memory than the rest of
    # the package; it is imported where a spline is built, so paths that
    # never build one skip it
    from scipy.interpolate import CubicSpline

__all__ = [
    "DensityTable",
    "DerivativeProbe",
    "PoissonReport",
    "PoissonTrend",
    "chi_surface",
    "density_table",
    "derivative_probe",
    "fast_route_deviation",
    "mixed_l1_moment",
    "poisson_check",
    "poisson_trend",
    "pure_l2_moment",
    "sigma_inf",
    "weight_l2_norm_sq",
]

_INNER_ORDER = 12
_INNER_PANELS = 4
_S1_EDGE = 3.2  # table the surface density slightly past |b| = 3
_S1_NODES, _S1_REL_TOL, _S1_SEED, _S1_VALIDATION_SEED = 385, 3e-7, 20, 20240917
# what the S1 nodes depend on; a stored table must reproduce _S1_PROBES
_S1_KEY = repr((DEFAULT_BUMPS, _S1_NODES, _S1_EDGE, _S1_REL_TOL, _S1_SEED,
                _S1_VALIDATION_SEED)).encode()
_S1_PROBES = (96, 288)


def _cube(t: np.ndarray) -> np.ndarray:
    return t * t * t


def _chi_integrand(b: float, pts: np.ndarray) -> np.ndarray:
    """prod w2(six forms)/(3 z1^2) at the surface points (z1, z2, z3) with
    z1 = cbrt(b - z2^3 - z3^3), for an (N, 2) array of (z2, z3).

    The product is exactly 0 unless all six forms lie in (1/2, 11), so the
    forms are tested on contiguous 1-d arrays and only the rows that pass
    are sorted and multiplied out; the others stay 0.0, as the full product
    would give them.  The live points are gathered into the contiguous rows
    of a (3, n) array, whose transpose _six_forms reads column by column.
    """
    z2, z3 = (np.ascontiguousarray(pts[:, k]) for k in (0, 1))
    z1 = np.cbrt(b - _cube(z2) - _cube(z3))
    live = np.ones(len(pts), dtype=bool)
    for form in (z1, z2, z3, z1 + z2, z1 + z3, z2 + z3):
        a = np.abs(form)
        live &= (a > 0.5) & (a < 11.0)
    out = np.zeros(len(pts))
    idx = np.flatnonzero(live)
    if idx.size:
        y1 = z1[idx]
        forms = _six_forms(np.stack([y1, z2[idx], z3[idx]]).T)
        out[idx] = _w2_product(forms, 1.0)[:, 0] / (3.0 * y1 ** 2)
    return out


def chi_surface(b: float, rel_tol: float = _S1_REL_TOL) -> float:
    """S1(b): surface integral of prod w2(six forms)/(3 y1^2) at level b.

    chi is even and supported in 1/2 <= |y_l| <= 11, so the domain is
    [-11, 11]^2, and _chi_integrand forms only the points where all six
    forms lie inside the w2 support.  S1 is even in b.
    """
    res = adaptive_integrate(partial(_chi_integrand, b), (-11.0, -11.0),
                             (11.0, 11.0), rel_tol=rel_tol, abs_floor=1e-14,
                             seed=_S1_SEED)
    return res.value


def _s1_probe(half: np.ndarray, vals: np.ndarray) -> bool:
    """Do the probed nodes of a stored table recompute to the same bits?"""
    return all(chi_surface(half[i]).hex() == float(vals[i]).hex()
               for i in _S1_PROBES)


@lru_cache(maxsize=1)
def _s1_spline() -> tuple[CubicSpline, np.ndarray, float]:
    """Cubic spline of S1 on [-_S1_EDGE, _S1_EDGE], its node values on
    [0, _S1_EDGE] and its off-grid validation error against direct quadrature
    of chi at 16 random points; values and error come from the disk store if
    it holds a table that passes _s1_probe, and a build is written there."""
    from scipy.interpolate import CubicSpline

    half = np.linspace(0.0, _S1_EDGE, _S1_NODES)
    path = cache.s1_path()
    stored = cache.load(path, _S1_KEY, _S1_NODES, partial(_s1_probe, half))
    vals, worst = stored or (np.array([chi_surface(b) for b in half]), None)
    spline = CubicSpline(np.concatenate([-half[:0:-1], half]),
                         np.concatenate([vals[:0:-1], vals]))
    if worst is None:
        rng = np.random.default_rng(_S1_VALIDATION_SEED)
        worst = 0.0
        for b in rng.uniform(0.05, _S1_EDGE - 0.05, size=16):
            direct = chi_surface(float(b))
            worst = max(worst, abs(spline(b) - direct) / abs(direct))
        if worst > 1e-4:
            raise RuntimeError(f"surface-density table off by {worst:.2e}")
        cache.save(path, _S1_KEY, vals, worst)
    return spline, vals, worst


@lru_cache(maxsize=None)
def _r_nodes(R: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights in r for int_1^R f(r) dr/r, ample for spline integrands."""
    from .quadrature import log_panel_rule

    panels = max(12, math.ceil(8 * math.log(R)))
    return log_panel_rule(1.0, float(R), panels, 12)


def _sigma_fast(atil: np.ndarray, R: float) -> np.ndarray:
    spline = _s1_spline()[0]
    r, w = _r_nodes(R)
    arr = np.atleast_1d(np.asarray(atil, dtype=float))
    out = np.zeros_like(arr)
    w0v = bump("w0", arr)
    m = w0v > 0.0
    if m.any():
        args = arr[m, None] / _cube(r)[None, :]
        out[m] = w0v[m] * (spline(args) @ w)
    return out


def _sigma_direct(atil: float, weight: Weight, rel_tol: float,
                  abs_floor: float) -> float:
    B = weight.B
    floor1 = 1.0 / (2.0 * B)  # support has |y1| >= 1/B; skip the branch zero

    def integrand(pts: np.ndarray) -> np.ndarray:
        y2 = pts[:, 0]
        y3 = pts[:, 1]
        y1 = np.cbrt(atil - _cube(y2) - _cube(y3))
        out = np.zeros(len(pts))
        m = np.abs(y1) >= floor1
        if m.any():
            ym = np.column_stack([y1[m], y2[m], y3[m]])
            out[m] = weight.evaluate(ym) / (3.0 * y1[m] ** 2)
        return out

    seed = max(16, min(64, round(B / 3)))
    res = adaptive_integrate(integrand, (-B, -B), (B, B), rel_tol=rel_tol,
                             abs_floor=abs_floor, seed=seed)
    return res.value


def sigma_inf(a: float, X: float, weight: Weight,
              rel_tol: float | None = None, abs_floor: float | None = None,
              method: str = "auto") -> float:
    """Density of F0 = a at scale X against the weight, >= 0.

    Computed at the rescaled argument a/X^3 (the value is X-invariant).
    method "auto" takes the fast route through the tabulated S1, which reads
    only weight.R and takes no tolerance; "direct" is the literal 2-d
    quadrature, its oracle, to rel_tol (default 1e-6) and abs_floor
    (default 1e-14).
    """
    if X <= 0:
        raise ValueError("X must be positive")
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and (rel_tol, abs_floor) != (None, None):
        raise ValueError("rel_tol and abs_floor apply to method='direct' only")
    atil = float(a) / float(X) ** 3
    if abs(atil) > weight.a_support:
        return 0.0
    if method == "direct":
        return _sigma_direct(atil, weight,
                             1e-6 if rel_tol is None else rel_tol,
                             1e-14 if abs_floor is None else abs_floor)
    return float(_sigma_fast(atil, weight.R)[0])


def fast_route_deviation(R: float = 2.0, probes=(0.0, 0.9, 2.2)) -> float:
    """Max relative gap between the fast and direct sigma routes at the
    probe a-tilde values; exercises the Fubini/scaling identity end to end."""
    nu = nu_star(R)
    worst = 0.0
    for atil in probes:
        fast = sigma_inf(atil, 1.0, nu)
        direct = sigma_inf(atil, 1.0, nu, method="direct")
        worst = max(worst, abs(fast - direct) / max(abs(direct), 1e-12))
    return worst


@dataclass
class DensityTable:
    """Uniform a-tilde samples of sigma_inf with cubic interpolation."""

    weight: Weight
    grid: np.ndarray
    values: np.ndarray
    max_validation_error: float
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self._spline is None:
            from scipy.interpolate import CubicSpline

            self._spline = CubicSpline(self.grid, self.values)

    def __call__(self, atil):
        arr = np.atleast_1d(np.asarray(atil, dtype=float))
        out = np.zeros_like(arr)
        m = np.abs(arr) <= self.weight.a_support
        if m.any():
            out[m] = np.maximum(self._spline(arr[m]), 0.0)
        if np.isscalar(atil) or np.asarray(atil).ndim == 0:
            return float(out[0])
        return out

    def integrate_square(self) -> float:
        """Exact integral of the interpolant squared over the grid range.

        Order-4 Gauss per grid interval integrates the degree-6 piecewise
        polynomial exactly; terms combined with fsum.
        """
        x, w = gauss_rule(4)
        a, b = self.grid[:-1], self.grid[1:]
        nodes = a[:, None] + (b - a)[:, None] * x[None, :]
        vals = self._spline(nodes.ravel()).reshape(nodes.shape)
        per_cell = (vals**2 @ w) * (b - a)
        return math.fsum(per_cell.tolist())

    def derivative(self, k: int):
        return self._spline.derivative(k)

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("a_tilde,sigma\n")
            for g, v in zip(self.grid, self.values):
                fh.write(f"{g:.17g},{v:.17g}\n")


def density_table(weight: Weight, grid_size: int = 256, seed: int = 0,
                  validation_points: int = 32) -> DensityTable:
    """Sample sigma_inf on a grid of a-tilde in [-a_support, a_support].

    Interpolation is validated at random off-grid points against
    non-interpolated sigma_inf; if the max relative error reaches 1e-3 the
    grid is refined once, and a second failure raises ValueError naming the
    worst offending a-tilde.  One table is built per weight object and
    argument tuple, however the arguments are spelled at the call site.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    return _density_table(weight, grid_size, seed, validation_points)


@lru_cache(maxsize=None)
def _density_table(weight: Weight, grid_size: int, seed: int,
                   validation_points: int) -> DensityTable:
    rng = np.random.default_rng(seed)
    probes = rng.uniform(-weight.a_support, weight.a_support,
                         size=validation_points)
    size = grid_size
    worst = worst_at = 0.0
    for _ in range(2):
        grid = np.linspace(-weight.a_support, weight.a_support, size)
        values = _sigma_fast(grid, weight.R)
        table = DensityTable(weight, grid, values, math.nan)
        scale = max(float(values.max()), 1e-30)
        worst = 0.0
        for p in probes:
            point = sigma_inf(p, 1.0, weight)
            err = abs(table(p) - point) / max(abs(point), 1e-6 * scale)
            if err > worst:
                worst, worst_at = err, p
        table.max_validation_error = worst
        if worst < 1e-3:
            return table
        size *= 2
    raise ValueError(
        f"density table failed validation after refinement: relative error "
        f"{worst:.3e} at a_tilde={float(worst_at)!r}"
    )


def _slab_integral(weight: Weight, inner_fn, rel_tol: float = 1e-6,
                   order: int = _INNER_ORDER,
                   panels: int = _INNER_PANELS) -> float:
    """Integrate inner_fn(points) over the slab {|F0| <= a_support}.

    Outer 2-d adaptive over (y2, y3); inner composite Gauss over the exact
    y1-interval, split into `panels` equal pieces (a single Gauss rule
    converges slowly through the interior onset bands of the weight).
    inner_fn maps (M, 3) points to (M,) values, must vanish where the
    weight does, and must be even under z -> -z (the outer domain is halved
    accordingly).  nu_star vanishes for |y1| <= 1/2 (the first w2 band
    starts at 1/2 and r >= 1), so that dead strip is excluded exactly.
    """
    B = weight.B
    A = weight.a_support

    def outer(pts: np.ndarray) -> np.ndarray:
        s = _cube(pts[:, 0]) + _cube(pts[:, 1])
        zlo = np.cbrt(-A - s)
        zhi = np.cbrt(A - s)
        total = np.zeros(len(pts))
        for lo, hi in ((zlo, np.minimum(zhi, -0.5)),
                       (np.maximum(zlo, 0.5), zhi)):
            width = np.maximum(hi - lo, 0.0)
            for k in range(panels):
                nodes, wts = scaled_gauss_nodes(lo + width * (k / panels),
                                                lo + width * ((k + 1) / panels),
                                                order)
                n, m = nodes.shape
                full = np.empty((n * m, 3))
                full[:, 0] = nodes.ravel()
                full[:, 1] = np.repeat(pts[:, 0], m)
                full[:, 2] = np.repeat(pts[:, 1], m)
                total += np.sum(inner_fn(full).reshape(n, m) * wts, axis=1)
        return total

    seed = max(16, min(64, round(B / 3)))
    res = adaptive_integrate(outer, (0.0, -B), (B, B), rel_tol=rel_tol,
                             abs_floor=1e-14, seed=seed)
    return 2.0 * res.value


def pure_l2_moment(weight: Weight, grid_size: int = 256) -> float:
    """Integral over a-tilde of sigma_inf(a-tilde)^2 (X-independent)."""
    return density_table(weight, grid_size).integrate_square()


@lru_cache(maxsize=None)
def mixed_l1_moment(weight: Weight, grid_size: int = 256,
                    rel_tol: float = 1e-5) -> float:
    """Integral of nu(z) * sigma_inf(F0(z)) over z (X-independent).

    Evaluates nu pointwise over its 3-d support; agreement with the pure
    moment is a genuine cross-check of the surface quadrature.
    """
    table = density_table(weight, grid_size)

    def fn(pts: np.ndarray) -> np.ndarray:
        vals = weight.evaluate(pts)
        m = vals > 0.0
        out = np.zeros(len(pts))
        if m.any():
            out[m] = vals[m] * table(f0(pts[m]))
        return out

    return _slab_integral(weight, fn, rel_tol=rel_tol)


@lru_cache(maxsize=None)
def weight_l2_norm_sq(weight: Weight, rel_tol: float = 3e-6) -> float:
    """Integral of nu(y)^2 over R^3."""

    def fn(pts: np.ndarray) -> np.ndarray:
        v = weight.evaluate(pts)
        return v * v

    return _slab_integral(weight, fn, rel_tol=rel_tol)


@dataclass(frozen=True)
class PoissonReport:
    X: int
    N: int
    b: int
    lattice_sum: float
    reference: float
    rel_deviation: float


@dataclass(frozen=True)
class PoissonTrend:
    reports: tuple
    decreasing: bool


def poisson_check(weight: Weight, X: int, N: int, b: int,
                  grid_size: int = 256) -> PoissonReport:
    """Compare sum of sigma^2 over a = b mod N, |a| <= a_support*X^3 with
    X^3/N times the integral of sigma^2 (both from the same table)."""
    if X < 1 or N < 1:
        raise ValueError("X and N must be integers >= 1")
    table = density_table(weight, grid_size)
    bound = int(math.floor(weight.a_support * X**3))
    start = -bound + ((b - (-bound)) % N)
    a_vals = np.arange(start, bound + 1, N, dtype=float)
    scale = float(X) ** 3
    vals = table(a_vals / scale) ** 2
    lattice_sum = math.fsum(vals.tolist())
    reference = scale * table.integrate_square() / N
    rel = abs(lattice_sum - reference) / abs(reference)
    return PoissonReport(X, N, b, lattice_sum, reference, rel)


def poisson_trend(weight: Weight, N: int, b: int, Xs=(20, 40, 80),
                  grid_size: int = 256) -> PoissonTrend:
    """Deviation trend across doubling X; deviations below 1e-12 count as
    floor-level ties (the discrete sum converges superpolynomially)."""
    reports = tuple(poisson_check(weight, X, N, b, grid_size) for X in Xs)
    decreasing = all(
        reports[i + 1].rel_deviation <= reports[i].rel_deviation + 1e-12
        for i in range(len(reports) - 1)
    )
    return PoissonTrend(reports, decreasing)


@dataclass(frozen=True)
class DerivativeProbe:
    k: int
    max_abs: float
    sobolev: float
    bound_scale: float
    ratio: float
    central_vs_onesided: float


def derivative_probe(weight: Weight, k: int, grid_size: int = 256) -> DerivativeProbe:
    """Max |d^k/d a-tilde^k sigma| from the density table, compared with the
    sampled Sobolev norm times B^(10+4k); report only."""
    if not 0 <= k <= 3:
        raise ValueError("k must be in 0..3")
    table = density_table(weight, grid_size)
    dense = np.linspace(table.grid[0], table.grid[-1], 4097)
    deriv = table.derivative(k)(dense) if k else table(dense)
    max_abs = float(np.max(np.abs(deriv)))
    sob = sobolev_estimate(weight, k)
    bound_scale = sob * float(weight.B) ** (10 + 4 * k)
    # consistency of two first-derivative estimators at the steepest point
    d1 = table.derivative(1)(dense)
    i = int(np.argmax(np.abs(d1)))
    x0 = float(np.clip(dense[i], table.grid[0] + 0.1, table.grid[-1] - 0.1))
    h = 2e-3
    central = (table(x0 + h) - table(x0 - h)) / (2 * h)
    onesided = (-3 * table(x0) + 4 * table(x0 + h) - table(x0 + 2 * h)) / (2 * h)
    rel = abs(central - onesided) / max(abs(central), 1e-12)
    return DerivativeProbe(k, max_abs, sob, bound_scale,
                           max_abs / bound_scale, rel)
