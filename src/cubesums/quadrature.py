"""Adaptive tensor-product quadrature for smooth compactly supported integrands.

Strategy: recursive bisection over axis-aligned cells of a box in R^2 with a
fixed Gauss-Legendre rule per cell; the error estimate for a cell is the
difference between the 8-point and the 11-point tensor rule.  Cells are split
along their wider axis until the total error estimate meets
max(rel_tol * |value|, 1e-14), for at most 60 rounds.
Integrands are evaluated in batches: the callable is called as f(x, y) with
two contiguous (N,) arrays of coordinates, N at most 2^14, and returns an
(N,) array.  It must be pointwise: a node's value may not depend on the
nodes batched with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadResult",
    "adaptive_integrate",
    "gauss_rule",
    "log_panel_rule",
    "scaled_gauss_nodes",
]

# Gauss-Legendre orders of the coarse and the fine rule, and the round cap
_ORDER, _ORDER_HI, _MAX_ROUNDS = 8, 11, 60
_ABS_FLOOR = 1e-14  # the error target never falls below this
_MAX_EVALS = 80_000_000  # integrand evaluations allowed per integral
# nodes per integrand call.  At 2^14 nodes each float64 coordinate row or
# temporary of the integrand is 128 KB and stays in cache; a whole round
# (about 48k nodes per rule for the S1 surface) leaves it
_BLOCK_NODES = 1 << 14


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _tensor_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule on [0,1]^2: nodes (2, order^2), one contiguous
    row per axis, the second axis running fastest, and weights."""
    x, w = gauss_rule(order)
    ref = np.stack([np.repeat(x, order), np.tile(x, order)])
    wt = np.outer(w, w).ravel()
    ref.setflags(write=False)
    wt.setflags(write=False)
    return ref, wt


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_evals: int
    n_cells: int


def _estimate(f, lows, highs, order):
    """Per-cell rule values: lows/highs (n, 2) -> (n,) estimates."""
    ref, refw = _tensor_rule(order)
    widths = highs - lows
    # row k holds coordinate k of every node, cell by cell
    nodes = np.empty((2, len(lows), len(refw)))
    for k, row in enumerate(ref):
        np.multiply(widths[:, k, None], row, out=nodes[k])
        nodes[k] += lows[:, k, None]
    x, y = nodes.reshape(2, -1)
    vals = np.empty(len(x))
    for start in range(0, len(vals), _BLOCK_NODES):
        block = slice(start, start + _BLOCK_NODES)
        vals[block] = f(x[block], y[block])
    # one product per rule over all its cells: BLAS may round a row
    # differently if the batch of cells changes
    vals = vals.reshape(len(lows), -1)
    return (vals @ refw) * (widths[:, 0] * widths[:, 1])


def adaptive_integrate(f, lo, hi, rel_tol: float, seed: int) -> QuadResult:
    """Integrate f over the box [lo, hi] in R^2 to the given tolerance,
    starting from a grid of seed x seed cells.

    f(x, y) maps two contiguous (N,) coordinate arrays, N at most 2^14, to
    an (N,) array and must be pointwise: a node's value depends on that node
    alone.  Raises RuntimeError rather than exceed _MAX_EVALS evaluations or
    60 rounds of refinement before convergence.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (2,) or hi.shape != (2,):
        raise ValueError("need a box in R^2")
    if np.any(hi <= lo):
        raise ValueError("empty box")
    per_cell = _ORDER**2 + _ORDER_HI**2

    # seed grid: seed slices per axis, the second axis running fastest
    ex, ey = (np.linspace(lo[k], hi[k], seed + 1) for k in (0, 1))
    new_lo = np.column_stack([np.repeat(ex[:-1], seed), np.tile(ey[:-1], seed)])
    new_hi = np.column_stack([np.repeat(ex[1:], seed), np.tile(ey[1:], seed)])
    lows = highs = np.empty((0, 2))
    values = errors = np.empty(0)
    n_evals = 0
    where = ""

    for _ in range(_MAX_ROUNDS):
        if n_evals + len(new_lo) * per_cell > _MAX_EVALS:
            raise RuntimeError(f"quadrature exceeded eval budget{where}")
        n_evals += len(new_lo) * per_cell
        coarse = _estimate(f, new_lo, new_hi, _ORDER)
        fine = _estimate(f, new_lo, new_hi, _ORDER_HI)
        lows = np.concatenate([lows, new_lo])
        highs = np.concatenate([highs, new_hi])
        values = np.concatenate([values, fine])
        errors = np.concatenate([errors, np.abs(fine - coarse)])

        total = math.fsum(values)
        tol = max(rel_tol * abs(total), _ABS_FLOOR)
        total_err = float(np.sum(errors))
        if total_err <= tol:
            return QuadResult(total, total_err, n_evals, len(values))
        where = f" at error {total_err:.3e} (target {tol:.3e})"
        # split every cell holding more than its equidistributed share
        split = errors > tol / (2 * len(values))
        s_lo, s_hi = lows[split], highs[split]
        lows, highs = lows[~split], highs[~split]
        values, errors = values[~split], errors[~split]
        widths = s_hi - s_lo
        axis = np.argmax(widths, axis=1)
        mid = s_lo.copy()
        mid[np.arange(len(s_lo)), axis] += widths[np.arange(len(s_lo)), axis] / 2
        left_hi = s_hi.copy()
        left_hi[np.arange(len(s_lo)), axis] = mid[np.arange(len(s_lo)), axis]
        new_lo = np.concatenate([s_lo, mid])
        new_hi = np.concatenate([left_hi, s_hi])
    raise RuntimeError(f"quadrature failed to converge in {_MAX_ROUNDS} rounds")


@lru_cache(maxsize=None)
def log_panel_rule(lo: float, hi: float, panels: int, order: int):
    """Nodes r_j and weights w_j with sum w_j f(r_j) ~ int_lo^hi f(r) dr/r.

    Composite Gauss-Legendre in u = log r with `panels` equal panels.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    x, w = gauss_rule(order)
    u_edges = np.linspace(math.log(lo), math.log(hi), panels + 1)
    du = u_edges[1] - u_edges[0]
    u = (u_edges[:-1, None] + du * x[None, :]).ravel()
    wt = np.broadcast_to(w * du, (panels, order)).ravel().copy()
    r = np.exp(u)
    r.setflags(write=False)
    wt.setflags(write=False)
    return r, wt


def scaled_gauss_nodes(lo: np.ndarray, hi: np.ndarray, order: int):
    """Row-wise Gauss nodes: lo/hi (N,) -> nodes (N, order), weights (N, order).

    sum_j weights[i,j] f(nodes[i,j]) ~ int_{lo[i]}^{hi[i]} f.  Rows with
    hi <= lo get zero weights.
    """
    x, w = gauss_rule(order)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = np.maximum(hi - lo, 0.0)
    nodes = lo[:, None] + span[:, None] * x[None, :]
    weights = span[:, None] * w[None, :]
    return nodes, weights
