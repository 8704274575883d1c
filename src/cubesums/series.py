"""Truncated singular series s_a(K), the coprime-to-30 mollifier M_a(K),
their product identity, Euler factors gamma_p(a), and scans for small
|s_a(K)| over ranges of a.

    s_a(K) = sum_{n <= K} n^{-3} T_a(n)
    M_a(K) = sum_{n <= K, (n,30)=1} mu(n) n^{-3} T_a(n)

Both have an exact rational mode and a vectorized double mode, and both make
one pass over a window of consecutive a: each T-vector is tiled once into a
cache-sized chunk of whole periods, and the window adds slices of it, so the
cost is O(K * window) array work with no index arrays.  The exact mode adds
integer numerators over lcm(1..K)^3 in object arrays.  The scan reads
s_a(K/4) and s_a(K/2) as checkpoints of the same pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import CheckFailed
from .arith import admissible, factor, mobius, primes_below, rad, sq_cub_parts
from .expsums import MAX_MODULUS, _crt_product, sigma_p_a, t_full, t_single


@dataclass(frozen=True)
class SeriesWindow:
    """s_a(K) and M_a(K) for a in [a_lo, a_hi]."""

    K: int
    a_lo: int
    a_hi: int
    mode: str
    s: np.ndarray | list[Fraction]
    m: np.ndarray | list[Fraction]

    def index(self, a: int) -> int:
        if not self.a_lo <= a <= self.a_hi:
            raise IndexError(f"a={a} outside window [{self.a_lo}, {self.a_hi}]")
        return a - self.a_lo

    def s_at(self, a: int):
        return self.s[self.index(a)]

    def m_at(self, a: int):
        return self.m[self.index(a)]


# window values per slice add: a chunk of whole periods of one T-vector
# that stays in cache while the window streams past it
_CHUNK = 1 << 14
_MAX_WIDTH = 1 << 27  # variance's widest: lattice's table has 2^27 bins


def _check_window(K: int, width: int) -> None:
    # every term n <= K reads the T-vector of modulus n
    if K > MAX_MODULUS:
        raise ValueError(f"need K <= {MAX_MODULUS}, got K={K}")
    if width > _MAX_WIDTH:
        raise ValueError(f"window of {width} values exceeds the limit {_MAX_WIDTH}")


def _partial_sums(K: int, a_lo: int, width: int, mollified: bool = True,
                  denom: int | None = None):
    """Yield (n, s, m) after the n-th term, n = 1..K, of the double s_a(K)
    and M_a(K) over a in [a_lo, a_lo + width); m is None unless mollified.
    Given denom, a multiple of every n^3, they are object arrays of the
    exact integer numerators over denom instead.

    s and m are updated in place.  Each T-vector is tiled once into a chunk
    of whole periods (about min(_CHUNK, width) values) that starts at
    a_lo mod n, and every chunk of the window adds a slice of it: the same
    additions, in the same order, as adding t[a mod n] (the -1 Moebius term
    by subtraction, which is adding -t exactly).
    """
    dtype = float if denom is None else object
    s = np.zeros(width, dtype)
    m = np.zeros(width, dtype) if mollified else None
    for n in range(1, K + 1):
        t = (t_full(n).astype(float) / n**3 if denom is None
             else t_full(n).astype(object) * (denom // n**3))
        step = n * max(1, min(_CHUNK, width) // n)
        start = a_lo % n
        chunk = np.tile(t, step // n + 1)[start:start + step]
        mu = mobius(n) if mollified and math.gcd(n, 30) == 1 else 0
        for i in range(0, width, step):
            vals = chunk[:width - i]
            s[i:i + step] += vals
            if mu == 1:
                m[i:i + step] += vals
            elif mu == -1:
                m[i:i + step] -= vals
        yield n, s, m


def series_window(K: int, a_lo: int, a_hi: int, mode: str = "double") -> SeriesWindow:
    if K < 1 or a_hi < a_lo:
        raise ValueError("need K >= 1 and a_lo <= a_hi")
    if mode not in ("double", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    width = a_hi - a_lo + 1
    _check_window(K, width)
    denom = math.lcm(*range(1, K + 1)) ** 3 if mode == "exact" else None
    for _n, s, m in _partial_sums(K, a_lo, width, denom=denom):
        pass  # s and m hold the sums after the last term
    if denom is not None:
        s, m = ([Fraction(x, denom) for x in v] for v in (s, m))
    return SeriesWindow(K, a_lo, a_hi, mode, s, m)


def s_value(a: int, K: int) -> Fraction:
    """Exact s_a(K) for a single a."""
    return sum((Fraction(t_single(a, n), n**3) for n in range(1, K + 1)), Fraction(0))


def m_value(a: int, K: int) -> Fraction:
    out = Fraction(0)
    for n in range(1, K + 1):
        mu = mobius(n)
        if mu and math.gcd(n, 30) == 1:
            out += Fraction(mu * t_single(a, n), n**3)
    return out


# --------------------------------------------------------------------------
# c_a(n): the Dirichlet convolution of n^{-3} T_a with its mollified Moebius
# twist; multiplicative, vanishing at primes >= 7


def c_coeff(a: int, n: int) -> Fraction:
    """c_a(n) = n^{-3} sum_{n1 n2 = n, (n2,30)=1} T_a(n1) mu(n2) T_a(n2),
    evaluated through its prime-power factorization."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = Fraction(1)
    for p, e in factor(n).factors:
        q = p**e
        num = t_single(a, q)
        if p >= 7:
            num -= t_single(a, q // p) * t_single(a, p)
        out *= Fraction(num, q**3)
        if out == 0:
            break
    return out


def c_coeff_definitional(a: int, n: int) -> Fraction:
    """Direct divisor-sum evaluation of c_a(n); oracle for c_coeff."""
    total = Fraction(0)
    for n2 in range(1, n + 1):
        if n % n2:
            continue
        mu = mobius(n2)
        if mu == 0 or math.gcd(n2, 30) != 1:
            continue
        total += mu * t_single(a, n // n2) * t_single(a, n2)
    return total / n**3


@dataclass(frozen=True)
class GammaFactor:
    """gamma_p(a) = sigma_{p,a} * (1 - p^{-3} T_a(p) [p >= 7])."""

    p: int
    a: int
    sigma: Fraction
    mollifier: Fraction
    value: Fraction


def gamma_factor(a: int, p: int) -> GammaFactor:
    sigma = sigma_p_a(p, a).value
    mollifier = Fraction(1)
    if p >= 7:
        mollifier -= Fraction(t_single(a, p), p**3)
    # |T~_a(p)| < 0.99 p for p >= 7 keeps the mollifier inside (0.01, 1.99)
    if not Fraction(1, 100) < mollifier < Fraction(199, 100):
        raise CheckFailed(f"mollifier {mollifier} out of range at a={a}, p={p}")
    return GammaFactor(p, a, sigma, mollifier, sigma * mollifier)


@dataclass(frozen=True)
class GammaProduct:
    a: int
    p_max: int
    value: float
    half_range_value: float
    stabilization_gap: float
    factors: dict[int, float] = field(repr=False)


def gamma_product(a: int, p_max: int = 1000) -> GammaProduct:
    """prod_{p <= p_max} gamma_p(a), with the halved-range partial product
    reported as a stabilization diagnostic."""
    if a == 0:
        raise ValueError("gamma product needs a != 0")
    if not 2 <= p_max <= MAX_MODULUS:
        raise ValueError(f"p_max must lie in [2, {MAX_MODULUS}], got {p_max}")
    value = 1.0
    half = 1.0
    factors: dict[int, float] = {}
    for p in primes_below(p_max + 1):
        g = float(gamma_factor(a, p).value)
        factors[p] = g
        value *= g
        if p <= p_max // 2:
            half *= g
    return GammaProduct(a, p_max, value, half, abs(value - half), factors)


@dataclass(frozen=True)
class TruncationCheck:
    a: int
    gamma: float
    partials: dict[int, float]
    diffs: dict[int, float]
    endpoint_improved: bool


def euler_truncation_check(a: int, Ks: tuple[int, ...] = (8, 16, 32, 64), p_max: int = 1000) -> TruncationCheck:
    """Compare partial sums sum_{n <= K} c_a(n) with the gamma Euler product.

    The K-truncation error should shrink as K grows; asserting the full
    monotone trend is too brittle (the product itself is truncated at p_max),
    so only the endpoint comparison |diff(K_max)| <= |diff(K_min)| is exposed
    as a boolean.
    """
    gam = gamma_product(a, p_max).value
    partials = {}
    running = Fraction(0)
    ks = sorted(Ks)
    n = 1
    for K in ks:
        while n <= K:
            running += c_coeff(a, n)
            n += 1
        partials[K] = float(running)
    diffs = {K: abs(partials[K] - gam) for K in ks}
    return TruncationCheck(a, gam, partials, diffs, diffs[ks[-1]] <= diffs[ks[0]])


def identity_check_s_times_m(a: int, K: int) -> tuple[Fraction, Fraction, bool]:
    """Exact check of

        s_a(K) M_a(K) = sum_{n <= K} c_a(n)
            + sum_{n1, n2 <= K, n1 n2 > K, (n2,30)=1} n1^{-3} T_a(n1) mu(n2) n2^{-3} T_a(n2).

    Returns (lhs, rhs, lhs == rhs).
    """
    lhs = s_value(a, K) * m_value(a, K)
    rhs = sum((c_coeff(a, n) for n in range(1, K + 1)), Fraction(0))
    for n2 in range(1, K + 1):
        mu = mobius(n2)
        if mu == 0 or math.gcd(n2, 30) != 1:
            continue
        t2 = Fraction(mu * t_single(a, n2), n2**3)
        if t2 == 0:
            continue
        for n1 in range(K // n2 + 1, K + 1):
            rhs += Fraction(t_single(a, n1), n1**3) * t2
    return lhs, rhs, lhs == rhs


# --------------------------------------------------------------------------
# scans


_MAX_BINS = 10**6


@dataclass(frozen=True)
class ExceptionalScan:
    """Admissible a in [-A, A] with |s_a(K)| <= eta."""

    A: int
    K: int
    eta: float
    count: int
    admissible_total: int
    counts_by_K: dict[int, int]
    non_increasing: bool
    hist_edges: np.ndarray = field(repr=False)
    hist_counts: np.ndarray = field(repr=False)


def exceptional_scan(A: int, K: int, eta: float, bin_width: float = 0.25) -> ExceptionalScan:
    if A < 0 or K < 1:
        raise ValueError("need A >= 0, K >= 1")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be a finite number >= 0, got {eta}")
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be a finite number > 0, got {bin_width}")
    _check_window(K, 2 * A + 1)
    a = np.arange(-A, A + 1)
    adm = admissible(a)
    # s_a(K') for K' = K/4, K/2 are checkpoints of the one pass to K
    ks = sorted({max(1, K // 4), max(1, K // 2), K})
    counts_by_K = {}
    for n, s, _m in _partial_sums(K, -A, 2 * A + 1, mollified=False):
        if n in ks:
            counts_by_K[n] = int(np.count_nonzero(np.abs(s[adm]) <= eta))
    svals = s[adm]
    count = counts_by_K[K]
    seq = [counts_by_K[kk] for kk in ks]
    non_increasing = all(x >= y for x, y in zip(seq, seq[1:]))
    # a = 0 is admissible, so svals is never empty
    lo_n, hi_n = float(svals.min()) / bin_width, float(svals.max()) / bin_width
    if not hi_n - lo_n <= _MAX_BINS:  # also false when either is inf
        raise ValueError(f"bin width {bin_width} gives more than {_MAX_BINS} bins")
    lo, hi = math.floor(lo_n) * bin_width, math.ceil(hi_n) * bin_width
    nbins = max(1, round((hi - lo) / bin_width))
    hist, edges = np.histogram(svals, bins=nbins, range=(lo, lo + nbins * bin_width))
    return ExceptionalScan(A, K, eta, count, int(adm.sum()), counts_by_K, non_increasing, edges, hist)


# --------------------------------------------------------------------------
# b-averaged second moments of normalized sums


@dataclass(frozen=True)
class MomentRow:
    moduli: tuple[int, ...]
    abs_moment: float
    signed_mean: Fraction
    shape: float
    ratio: float


@dataclass(frozen=True)
class MomentReport:
    r: int
    rows: list[MomentRow]
    fitted_constant: float
    max_ratio_moduli: tuple[int, ...]


def moment_tuple(moduli: tuple[int, ...]) -> tuple[float, Fraction]:
    """(E_b prod |T~_b(m_i)|, E_b prod T~_b(m_i)) over b mod prod m_i."""
    total = math.prod(moduli)
    prod = _crt_product(total, [t_full(m) for m in moduli], object)
    denom = total * math.prod(m * m for m in moduli)
    signed = Fraction(int(sum(prod)), denom)
    abs_mean = float(sum(abs(int(x)) for x in prod)) / denom
    return abs_mean, signed


def moment_report(p_list: list[int], l_caps: int | dict[int, int] = 2, r: int = 1,
                  eps: float = 0.01, product_cap: int = 10**5) -> MomentReport:
    """b-averaged moments E_b prod |T~_b(m_i)| on prime-power grids.

    For r = 1 the grid is all pairs (p^i, p^j) with i, j up to the cap and
    product modulus at most product_cap; r = 2 extends to two prime blocks.
    Each average is divided by the shape
    sqrt(prod cub(m_i)) * M^{1/2+eps} / rad(M), M = prod m_i, fitting the
    implied constant.  The signed average is also computed exactly: it must
    vanish whenever M is not square-full.
    """
    caps = l_caps if isinstance(l_caps, dict) else {p: l_caps for p in p_list}
    grids: list[tuple[int, ...]] = []
    for p in p_list:
        cap = caps.get(p, 2)
        for i in range(cap + 1):
            for j in range(cap + 1):
                mods = (p**i, p**j)
                if math.prod(mods) <= product_cap and mods != (1, 1):
                    grids.append(mods)
    if r == 2:
        base = list(grids)
        for a in base:
            for b in base:
                mods = a + b
                if math.gcd(math.prod(a), math.prod(b)) == 1 and math.prod(mods) <= product_cap:
                    grids.append(mods)
    elif r != 1:
        raise ValueError("r must be 1 or 2")
    rows = []
    best: tuple[float, tuple[int, ...]] = (0.0, ())
    for mods in grids:
        abs_mean, signed = moment_tuple(mods)
        total = math.prod(mods)
        cub = math.prod(sq_cub_parts(m).cube_full for m in mods)
        shape = math.sqrt(cub) * float(total) ** (0.5 + eps) / rad(total)
        ratio = abs_mean / shape if shape else 0.0
        if ratio > best[0]:
            best = (ratio, mods)
        rows.append(MomentRow(mods, abs_mean, signed, shape, ratio))
    return MomentReport(r, rows, best[0], best[1])
