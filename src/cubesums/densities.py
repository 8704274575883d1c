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

S1 and the density tables are interpolated by _Spline, a not-a-knot cubic
spline in numpy and Python floats that repeats scipy's CubicSpline operation
for operation, so its values are scipy's to the bit (the tests compare
them) and the package needs no scipy.

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

import numpy as np

from . import cache
from .arith import _check_int
from .quadrature import (adaptive_integrate, gauss_rule, log_panel_rule,
                         scaled_gauss_nodes)
from .weights import Weight, bump, f0, _six_forms, _w2_product

__all__ = [
    "DensityTable",
    "PoissonReport",
    "PoissonTrend",
    "chi_surface",
    "density_table",
    "mixed_l1_moment",
    "poisson_check",
    "poisson_trend",
    "pure_l2_moment",
    "sigma_inf",
    "weight_l2_norm_sq",
]

# the slab integrals' inner rule in y1: this many Gauss panels of this order,
# and the relative tolerance of their outer 2-d rule
_INNER_ORDER, _INNER_PANELS = 12, 4
_SLAB_REL_TOL = 1e-4
_S1_EDGE = 3.2  # table the surface density slightly past |b| = 3
_S1_NODES, _S1_REL_TOL, _S1_SEED, _S1_VALIDATION_SEED = 385, 3e-7, 20, 20240917
# what the S1 nodes depend on; a stored table must reproduce _S1_PROBES
_S1_KEY = repr((_S1_NODES, _S1_EDGE, _S1_REL_TOL, _S1_SEED,
                _S1_VALIDATION_SEED)).encode()
_S1_PROBES = (96, 288)


def _cube(t: np.ndarray) -> np.ndarray:
    return t * t * t


class _Spline:
    """Not-a-knot cubic spline through n >= 4 strictly increasing float
    knots, equal bit for bit to scipy's CubicSpline(x, y), the tests' oracle.

    It repeats scipy 1.17.1's operations in order: the not-a-knot system for
    the knot slopes, solved as LAPACK dgtsv solves it (_gtsv); the four
    coefficient expressions; PPoly's evaluation on the interval of the knot
    at or left of v (the end intervals past the ends), summing 0.0 + c3 +
    c2 s + c1 s^2 + c0 s^3, with s = v - x[i] and its powers by products.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        diag = np.concatenate([dx[1:2], 2 * (dx[:-1] + dx[1:]), dx[-2:-1]])
        lower = np.concatenate([dx[1:], [x[-1] - x[-3]]])
        upper = np.concatenate([[x[2] - x[0]], dx[:-1]])
        rhs = np.empty(len(x))
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        w = x[2] - x[0]
        rhs[0] = ((dx[0] + 2 * w) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / w
        w = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
        s = np.array(_gtsv(lower.tolist(), diag.tolist(), upper.tolist(),
                           rhs.tolist()))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._x = x
        # c3 takes the sum's leading 0.0 +, which turns -0.0 into 0.0
        self._c = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], 0.0 + y[:-1])

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self._x, v, "right") - 1, 0,
                    len(self._x) - 2)
        c0, c1, c2, c3 = (c[i] for c in self._c)
        s = v - self._x[i]
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve the tridiagonal system (sub-diagonal dl, diagonal d,
    super-diagonal du) for one right-hand side b, as LAPACK dgtsv does:
    Gaussian elimination with partial pivoting, then back-substitution, in
    Python floats and in dgtsv's order.  Overwrites its lists; returns b.
    A row swap fills dl[i] with the second super-diagonal."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            f = dl[i] / d[i]
            d[i + 1] = d[i + 1] - f * du[i]
            b[i + 1] = b[i + 1] - f * b[i]
            dl[i] = 0.0
        else:
            f = d[i] / dl[i]
            d[i], tmp = dl[i], d[i + 1]
            d[i + 1] = du[i] - f * tmp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -f * dl[i]
            du[i] = tmp
            b[i], b[i + 1] = b[i + 1], b[i] - f * b[i + 1]
    b[-1] = b[-1] / d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _chi_integrand(b: float, z2: np.ndarray, z3: np.ndarray) -> np.ndarray:
    """prod w2(six forms)/(3 z1^2) at the surface points (z1, z2, z3) with
    z1 = cbrt(b - z2^3 - z3^3), for two (N,) arrays z2 and z3.

    The product is exactly 0 unless all six forms lie in (1/2, 11), so the
    forms are tested on contiguous 1-d arrays and only the points that pass
    are sorted and multiplied out; the others stay 0.0, as the full product
    would give them.  The live points are gathered into the contiguous rows
    of a (3, n) array, whose transpose _six_forms reads column by column.
    """
    z1 = np.cbrt(b - _cube(z2) - _cube(z3))
    live = np.ones(len(z2), dtype=bool)
    for form in (z1, z2, z3, z1 + z2, z1 + z3, z2 + z3):
        a = np.abs(form)
        live &= (a > 0.5) & (a < 11.0)
    out = np.zeros(len(z2))
    idx = np.flatnonzero(live)
    if idx.size:
        y1 = z1[idx]
        forms = _six_forms(np.stack([y1, z2[idx], z3[idx]]).T)
        out[idx] = _w2_product(forms, 1.0)[:, 0] / (3.0 * y1 ** 2)
    return out


def chi_surface(b: float) -> float:
    """S1(b): surface integral of prod w2(six forms)/(3 y1^2) at level b,
    to relative tolerance 3e-7.

    chi is even and supported in 1/2 <= |y_l| <= 11, so the domain is
    [-11, 11]^2, and _chi_integrand forms only the points where all six
    forms lie inside the w2 support.  S1 is even in b.  A NaN b, which
    would read every node as dead, raises ValueError.
    """
    if math.isnan(b):
        raise ValueError(f"b must be a number, got b={b!r}")
    res = adaptive_integrate(partial(_chi_integrand, b), (-11.0, -11.0),
                             (11.0, 11.0), rel_tol=_S1_REL_TOL, seed=_S1_SEED)
    return res.value


def _s1_probe(half: np.ndarray, vals: np.ndarray) -> bool:
    """Do the probed nodes of a stored table recompute to the same bits?"""
    return all(chi_surface(half[i]).hex() == float(vals[i]).hex()
               for i in _S1_PROBES)


@lru_cache(maxsize=1)
def _s1_spline() -> tuple[_Spline, np.ndarray, float]:
    """Cubic spline of S1 on [-_S1_EDGE, _S1_EDGE], its node values on
    [0, _S1_EDGE] and its off-grid validation error against direct quadrature
    of chi at 16 random points; values and error come from the disk store if
    it holds a table that passes _s1_probe, and a build is written there."""
    half = np.linspace(0.0, _S1_EDGE, _S1_NODES)
    path = cache.s1_path()
    stored = cache.load(path, _S1_KEY, _S1_NODES, partial(_s1_probe, half))
    vals, worst = stored or (np.array([chi_surface(b) for b in half]), None)
    spline = _Spline(np.concatenate([-half[:0:-1], half]),
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


def _sigma_fast(atil: np.ndarray, R: float) -> np.ndarray:
    spline = _s1_spline()[0]
    # nodes/weights in r for int_1^R f(r) dr/r, ample for spline integrands
    # (log_panel_rule caches them)
    panels = max(12, math.ceil(8 * math.log(R)))
    r, w = log_panel_rule(1.0, float(R), panels, 12)
    arr = np.atleast_1d(np.asarray(atil, dtype=float))
    out = np.zeros_like(arr)
    w0v = bump("w0", arr)
    m = w0v > 0.0
    if m.any():
        args = arr[m, None] / _cube(r)[None, :]
        out[m] = w0v[m] * (spline(args) @ w)
    return out


def _sigma_direct(atil: float, weight: Weight, rel_tol: float) -> float:
    B = weight.B

    def integrand(y2: np.ndarray, y3: np.ndarray) -> np.ndarray:
        y1 = np.cbrt(atil - _cube(y2) - _cube(y3))
        out = np.zeros(len(y2))
        m = np.abs(y1) > 0.5  # nu_star is 0 for |y1| <= 1/2
        if m.any():
            ym = np.column_stack([y1[m], y2[m], y3[m]])
            out[m] = weight.evaluate(ym) / (3.0 * y1[m] ** 2)
        return out

    seed = max(16, min(64, round(B / 3)))
    res = adaptive_integrate(integrand, (-B, -B), (B, B), rel_tol=rel_tol,
                             seed=seed)
    return res.value


def sigma_inf(a: float, X: float, weight: Weight,
              rel_tol: float | None = None, method: str = "auto") -> float:
    """Density of F0 = a at scale X against the weight, >= 0.

    Computed at the rescaled argument a/X^3 (the value is X-invariant).
    method "auto" takes the fast route through the tabulated S1, which reads
    only weight.R and takes no tolerance; "direct" is the literal 2-d
    quadrature, its oracle, to rel_tol (default 1e-6).
    """
    try:  # a float cube overflows with OverflowError, underflows to 0.0
        X3 = float(X) ** 3
    except OverflowError:
        X3 = math.inf
    if not 0 < X3 < math.inf:  # NaN included
        raise ValueError(f"X must be positive and its cube a positive "
                         f"finite float, got X={X!r}")
    if math.isnan(a):
        raise ValueError("a must be a number, got nan")
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and rel_tol is not None:
        raise ValueError("rel_tol applies to method='direct' only")
    if rel_tol is not None and not 0 < rel_tol < 1:  # NaN included
        raise ValueError(f"rel_tol must lie in (0, 1), got rel_tol={rel_tol!r}")
    atil = float(a) / X3
    if abs(atil) > weight.a_support:
        return 0.0
    if method == "direct":
        return _sigma_direct(atil, weight,
                             1e-6 if rel_tol is None else rel_tol)
    return float(_sigma_fast(atil, weight.R)[0])


@dataclass
class DensityTable:
    """Uniform a-tilde samples of sigma_inf with cubic interpolation."""

    weight: Weight
    grid: np.ndarray
    values: np.ndarray
    max_validation_error: float
    _spline: _Spline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._spline = _Spline(self.grid, self.values)

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


def density_table(weight: Weight, grid_size: int = 512) -> DensityTable:
    """Sample sigma_inf on a grid of a-tilde in [-a_support, a_support].

    Interpolation is validated at 32 seeded random off-grid points against
    non-interpolated sigma_inf; if the max relative error reaches 1e-3,
    ValueError names the grid size, the error and the worst offending
    a-tilde.  One table is built per weight object and grid size, however
    the arguments are spelled at the call site.
    """
    # the cap: _sigma_fast holds a grid x r-nodes matrix
    _check_int("grid_size", grid_size, 64, 1 << 16)
    return _density_table(weight, grid_size)


@lru_cache(maxsize=None)
def _density_table(weight: Weight, grid_size: int) -> DensityTable:
    rng = np.random.default_rng(0)
    probes = rng.uniform(-weight.a_support, weight.a_support, size=32)
    grid = np.linspace(-weight.a_support, weight.a_support, grid_size)
    values = _sigma_fast(grid, weight.R)
    table = DensityTable(weight, grid, values, math.nan)
    scale = max(float(values.max()), 1e-30)
    worst = worst_at = 0.0
    for p in probes:
        point = sigma_inf(p, 1.0, weight)
        err = abs(table(p) - point) / max(abs(point), 1e-6 * scale)
        if err > worst:
            worst, worst_at = err, p
    if worst >= 1e-3:
        raise ValueError(
            f"density table failed validation on {grid_size} points: "
            f"relative error {worst:.3e} at a_tilde={float(worst_at)!r}")
    table.max_validation_error = worst
    return table


def _slab_integral(weight: Weight, inner_fn) -> float:
    """Integrate inner_fn(points) over the slab {|F0| <= a_support}.

    Outer 2-d adaptive over (y2, y3) to _SLAB_REL_TOL; inner composite Gauss
    over the exact y1-interval, 4 equal panels of 12 nodes (a single Gauss
    rule converges slowly through the interior onset bands of the weight).
    inner_fn maps (M, 3) points to (M,) values, must vanish where the
    weight does, and must be even under z -> -z (the outer domain is halved
    accordingly).  nu_star vanishes for |y1| <= 1/2 (the first w2 band
    starts at 1/2 and r >= 1), so that dead strip is excluded exactly.
    """
    B = weight.B
    A = weight.a_support

    def outer(y2: np.ndarray, y3: np.ndarray) -> np.ndarray:
        s = _cube(y2) + _cube(y3)
        zlo = np.cbrt(-A - s)
        zhi = np.cbrt(A - s)
        total = np.zeros(len(y2))
        for lo, hi in ((zlo, np.minimum(zhi, -0.5)),
                       (np.maximum(zlo, 0.5), zhi)):
            width = np.maximum(hi - lo, 0.0)
            for k in range(_INNER_PANELS):
                nodes, wts = scaled_gauss_nodes(
                    lo + width * (k / _INNER_PANELS),
                    lo + width * ((k + 1) / _INNER_PANELS), _INNER_ORDER)
                n, m = nodes.shape
                full = np.empty((n * m, 3))
                full[:, 0] = nodes.ravel()
                full[:, 1] = np.repeat(y2, m)
                full[:, 2] = np.repeat(y3, m)
                total += np.sum(inner_fn(full).reshape(n, m) * wts, axis=1)
        return total

    seed = max(16, min(64, round(B / 3)))
    res = adaptive_integrate(outer, (0.0, -B), (B, B), rel_tol=_SLAB_REL_TOL,
                             seed=seed)
    return 2.0 * res.value


def pure_l2_moment(weight: Weight) -> float:
    """Integral over a-tilde of sigma_inf(a-tilde)^2 (X-independent)."""
    return density_table(weight).integrate_square()


@lru_cache(maxsize=None)
def mixed_l1_moment(weight: Weight) -> float:
    """Integral of nu(z) * sigma_inf(F0(z)) over z (X-independent).

    Evaluates nu pointwise over its 3-d support; agreement with the pure
    moment is a genuine cross-check of the surface quadrature.
    """
    table = density_table(weight)

    def fn(pts: np.ndarray) -> np.ndarray:
        vals = weight.evaluate(pts)
        m = vals > 0.0
        out = np.zeros(len(pts))
        if m.any():
            out[m] = vals[m] * table(f0(pts[m]))
        return out

    return _slab_integral(weight, fn)


@lru_cache(maxsize=None)
def weight_l2_norm_sq(weight: Weight) -> float:
    """Integral of nu(y)^2 over R^3."""

    def fn(pts: np.ndarray) -> np.ndarray:
        v = weight.evaluate(pts)
        return v * v

    return _slab_integral(weight, fn)


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


def poisson_check(weight: Weight, X: int, N: int, b: int) -> PoissonReport:
    """Compare sum of sigma^2 over a = b mod N, |a| <= a_support*X^3 with
    X^3/N times the integral of sigma^2 (both from the same table)."""
    _check_int("X", X)
    _check_int("N", N)
    _check_int("b", b, None)
    table = density_table(weight)
    bound = int(math.floor(weight.a_support * X**3))
    start = -bound + ((b - (-bound)) % N)
    a_vals = np.arange(start, bound + 1, N, dtype=float)
    scale = float(X) ** 3
    vals = table(a_vals / scale) ** 2
    lattice_sum = math.fsum(vals.tolist())
    reference = scale * table.integrate_square() / N
    rel = abs(lattice_sum - reference) / abs(reference)
    return PoissonReport(X, N, b, lattice_sum, reference, rel)


def poisson_trend(weight: Weight, N: int, b: int) -> PoissonTrend:
    """Deviation trend across X = 20, 40, 80; deviations below 1e-12 count
    as floor-level ties (the discrete sum converges superpolynomially)."""
    reports = tuple(poisson_check(weight, X, N, b) for X in (20, 40, 80))
    decreasing = all(
        reports[i + 1].rel_deviation <= reports[i].rel_deviation + 1e-12
        for i in range(len(reports) - 1)
    )
    return PoissonTrend(reports, decreasing)
