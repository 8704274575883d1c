"""Adaptive tensor-product quadrature for smooth compactly supported integrands.

Strategy: recursive bisection over axis-aligned cells with a fixed-order
Gauss-Legendre rule per cell; the error estimate for a cell is the difference
between a low- and a high-order rule.  Cells are split along their widest
axis until the total error estimate meets max(rel_tol * |value|, abs_floor).
Integrands are evaluated in batches, so the callable must accept an (N, dim)
array and return an (N,) array.  It must be pointwise: a row's value may not
depend on the rows batched with it.  Each rule's nodes are laid out
coordinate-major and passed in blocks of at most 2^14 rows, each an
F-ordered view whose columns pts[:, k] are contiguous; an integrand should
read columns and must not assume a C-ordered array.
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

# seed-grid resolution per dimension; a too-coarse seed can miss thin support
_DEFAULT_SEED = {1: 32, 2: 16, 3: 8}
# nodes per integrand call.  At 2^14 nodes each float64 coordinate column or
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
def _tensor_rule(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule on [0,1]^dim: nodes (dim, order^dim), one
    contiguous row per axis, and weights."""
    x, w = gauss_rule(order)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    ref = np.stack([g.ravel() for g in grids])
    wt = np.ones(order**dim)
    for axis in range(dim):
        wt *= np.meshgrid(*([w] * dim), indexing="ij")[axis].ravel()
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
    """Per-cell rule values: lows/highs (n, d) -> (n,) estimates."""
    ref, refw = _tensor_rule(order, lows.shape[1])
    widths = highs - lows
    # row k holds coordinate k of every node, cell by cell
    nodes = np.empty((len(ref), len(lows), len(refw)))
    for k, row in enumerate(ref):
        np.multiply(widths[:, k, None], row, out=nodes[k])
        nodes[k] += lows[:, k, None]
    nodes = nodes.reshape(len(ref), -1)
    vals = np.empty(nodes.shape[1])
    for start in range(0, len(vals), _BLOCK_NODES):
        block = slice(start, start + _BLOCK_NODES)
        vals[block] = f(nodes[:, block].T)
    # one product per rule over all its cells: BLAS may round a row
    # differently if the batch of cells changes
    vals = vals.reshape(lows.shape[0], -1)
    vol = np.prod(widths, axis=1)
    return (vals @ refw) * vol


def adaptive_integrate(
    f,
    lo,
    hi,
    rel_tol: float = 1e-6,
    abs_floor: float = 1e-14,
    order: int = 8,
    order_hi: int | None = None,
    seed: int | None = None,
    max_evals: int = 80_000_000,
    max_rounds: int = 60,
) -> QuadResult:
    """Integrate f over the box [lo, hi] (dim 1..3) to the given tolerance.

    f maps an (N, dim) float array to an (N,) array and must be pointwise:
    a row's value depends on that row alone.  It is called with blocks of at
    most 2^14 rows whose columns pts[:, k] are contiguous (an F-ordered
    view).  Raises RuntimeError rather than exceed max_evals evaluations or
    max_rounds rounds of refinement before convergence.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = lo.size
    if dim not in (1, 2, 3):
        raise ValueError(f"dimension {dim} not supported")
    if np.any(hi <= lo):
        raise ValueError("empty box")
    if order_hi is None:
        order_hi = order + 3
    n_seed = seed if seed is not None else _DEFAULT_SEED[dim]
    per_cell = order**dim + order_hi**dim

    # seed grid: n_seed slices per axis
    edges = [np.linspace(lo[k], hi[k], n_seed + 1) for k in range(dim)]
    mesh_lo = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
    mesh_hi = np.meshgrid(*[e[1:] for e in edges], indexing="ij")
    new_lo = np.stack([m.ravel() for m in mesh_lo], axis=-1)
    new_hi = np.stack([m.ravel() for m in mesh_hi], axis=-1)
    lows = highs = np.empty((0, dim))
    values = errors = np.empty(0)
    n_evals = 0
    where = ""

    for _ in range(max_rounds):
        if n_evals + len(new_lo) * per_cell > max_evals:
            raise RuntimeError(f"quadrature exceeded eval budget{where}")
        n_evals += len(new_lo) * per_cell
        coarse = _estimate(f, new_lo, new_hi, order)
        fine = _estimate(f, new_lo, new_hi, order_hi)
        lows = np.concatenate([lows, new_lo])
        highs = np.concatenate([highs, new_hi])
        values = np.concatenate([values, fine])
        errors = np.concatenate([errors, np.abs(fine - coarse)])

        total = math.fsum(values)
        tol = max(rel_tol * abs(total), abs_floor)
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
    raise RuntimeError(f"quadrature failed to converge in {max_rounds} rounds")


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
