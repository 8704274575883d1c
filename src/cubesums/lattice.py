"""Exact lattice-point counting for F0(y) = y1^3 + y2^3 + y3^3.

count_weighted bins nu(y/X) over the integer points of the weight's support
by the exact integer value a = F0(y).  Enumeration runs over (leading,
second) coordinate pairs; the third coordinate is recovered from the exact
cube-root interval |F0| <= a_support * X^3, so the cost is proportional to
the slab volume, not the box volume.

The production walk (_iter_orbits) visits one point per orbit of coordinate
permutations and global sign.  For a symmetric very-clean weight, nu is
constant on such an orbit and F0 is permutation-invariant and odd; no
support point has a zero coordinate or y_i = -y_j, so F0 != 0 there (Fermat,
n = 3).  A sorted representative y1 <= y2 <= y3 with F0(y) = a > 0 thus
stands for exactly k = 6, 3 or 1 points at a and k points at -a, and nu is
evaluated once for all 2k of them.  count_weighted is the only caller of
this walk; its CountTable keeps the walk's rows (a, k, nu), so special_count
and pair_count reduce a table instead of walking again, and table_at is the
one place that decides whether a caller's table is reused.  The plain walk
over every support point (_iter_alive, with a choice of loop order) is the
oracle behind pair_count_bruteforce and the tests.

Both walks buffer their candidates and evaluate nu once per block of them
(_alive_rows), not once per leading coordinate: a call carries a fixed
numpy cost, and one leading coordinate has only a few dozen candidates.
nu_star.evaluate is row-pure, so the block changes no bit of any value.

Weighted masses are floats, but every mass is a dyadic rational, so exact
arithmetic is available on demand: each nu value converts losslessly to an
integer at scale 2^-EXACT_SHIFT, and fiber products / special counts then
compare as integers.  The brute-force pair oracles used in tests rely on
this to assert equality exactly rather than to within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import CheckFailed
from .arith import primes_below
from .weights import Weight, is_nu_star

__all__ = [
    "CountTable",
    "PrimeDemo",
    "SpecialCount",
    "count_weighted",
    "pair_count",
    "pair_count_bruteforce",
    "prime_demo",
    "r3_nonneg",
    "special_count",
    "table_at",
]

EXACT_SHIFT = 1100  # nu values have denominator at most 2^1074
_ENUM_BOUND = 10**5
_MAX_BINS = 1 << 27
_WITNESS_CAP = 1000
# distinct permutations of a sorted triple with 0, 1, 2 adjacent equalities
_ORBIT_SIZE = np.array([6, 3, 1], dtype=np.int64)


def _dyadic_int(v: float) -> int:
    """Exact integer numerator of v at scale 2^-EXACT_SHIFT (v >= 0)."""
    n, d = v.as_integer_ratio()  # d is a power of two
    return n << (EXACT_SHIFT - (d.bit_length() - 1))


def _band_values(X: int, weight: Weight) -> np.ndarray:
    """Ascending integer values one support coordinate can take.

    For nu_star(R) every support point has |y_l|/X > 1/2 (the first w2
    band), so |y_l| >= X//2 + 1; generic weights only guarantee y_l != 0.
    """
    hmin = X // 2 + 1 if is_nu_star(weight) else 1
    hmax = weight.B * X
    pos = np.arange(hmin, hmax + 1, dtype=np.int64)
    return np.concatenate([-pos[::-1], pos])


def _ragged_arange(lo: np.ndarray, hi: np.ndarray):
    """Concatenate arange(lo_i, hi_i + 1) for every row; also row indices."""
    n = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(n)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    t = np.arange(total, dtype=np.int64)
    row = np.searchsorted(ends, t, side="right")
    starts = ends - n
    return lo[row] + (t - starts[row]), row


def _alive_rows(candidates, X: int, weight: Weight, block: int):
    """Yield (a, nu_values, points) for the live rows of the candidates.

    candidates yields (a, points) pieces in walk order.  nu is evaluated
    once per run of pieces holding at least block candidates, and once more
    for the rest, and the live rows come out in walk order.  A row-pure
    weight (nu_star is) gives the same values at any block.
    """
    buf, n_buf = [], 0
    for piece in candidates:
        buf.append(piece)
        n_buf += len(piece[0])
        if n_buf >= block:
            yield from _evaluate_alive(buf, X, weight)
            buf, n_buf = [], 0
    if buf:
        yield from _evaluate_alive(buf, X, weight)


def _evaluate_alive(pieces, X: int, weight: Weight):
    a, pts = (np.concatenate(col) for col in zip(*pieces))
    nu = weight.evaluate(pts.astype(float) / X)
    alive = nu > 0.0
    if alive.any():
        yield a[alive], nu[alive], pts[alive]


def _iter_alive(X: int, weight: Weight, order=(0, 1, 2), block: int = 1 << 17):
    """Yield (a, nu_values, points) blocks over every support lattice point.

    The oracle walk: nu is evaluated at each point, once per block of
    candidates.  order permutes which coordinate is enumerated as (leading,
    second, solved); the visited point set is identical for any order,
    which the loop-order oracle exploits.
    """
    if not weight.clean:
        raise ValueError("lattice enumeration requires a clean weight")
    band = _band_values(X, weight)
    a_cap = int(math.floor(weight.a_support * X**3))
    m = len(band)
    # the support splits into a negative and a positive coordinate band
    pieces = ((int(band[0]), int(band[m // 2 - 1])),
              (int(band[m // 2]), int(band[-1])))

    def candidates():
        for i in range(m):
            u = int(band[i])
            u3 = u**3
            for start in range(0, m, block):
                v = band[start:start + block]
                s = u3 + v**3
                lo_f = np.cbrt(float(-a_cap) - s.astype(float))
                hi_f = np.cbrt(float(a_cap) - s.astype(float))
                lo_i = np.ceil(lo_f).astype(np.int64) - 1  # widen against
                hi_i = np.floor(hi_f).astype(np.int64) + 1  # cbrt rounding
                for blo, bhi in pieces:
                    w, row = _ragged_arange(np.maximum(lo_i, blo),
                                            np.minimum(hi_i, bhi))
                    if not len(w):
                        continue
                    a = s[row] + w**3  # exact int64
                    keep = np.abs(a) <= a_cap
                    if not keep.any():
                        continue
                    w, row, a = w[keep], row[keep], a[keep]
                    pts = np.empty((len(w), 3), dtype=np.int64)
                    pts[:, order[0]] = u
                    pts[:, order[1]] = v[row]
                    pts[:, order[2]] = w
                    yield a, pts

    return _alive_rows(candidates(), X, weight, block)


def _iter_orbits(X: int, weight: Weight, block: int = 1 << 17):
    """Yield (a, k, nu_values, reps) blocks, one row per S3 x {+-1} orbit.

    reps are the sorted points y1 <= y2 <= y3 with 0 < F0(y) = a <= a_cap;
    nu is evaluated once per rep, in one call per block of candidates, and k
    in {6, 3, 1} counts its distinct permutations.  The orbit is those k
    points at a and their negatives at -a, all of weight nu.  block bounds
    the v-slice and sets the candidates per nu call.  count_weighted checks
    X and the weight.
    """
    band = _band_values(X, weight)
    a_cap = int(math.floor(weight.a_support * X**3))
    m = len(band)
    # y3 is the largest coordinate and F0 > 0, so y3 lies in the positive band
    y3_min, y3_max = int(band[m // 2]), int(band[-1])

    def candidates():
        for i in range(m):
            u = int(band[i])
            u3 = u**3
            for start in range(i, m, block):  # y2 >= y1
                v = band[start:start + block]
                s = u3 + v**3
                sf = s.astype(float)
                # y3 >= y2 and 0 < s + y3^3 <= a_cap, widened against cbrt
                # rounding
                lo_i = np.maximum(np.ceil(np.cbrt(-sf)).astype(np.int64) - 1,
                                  v)
                hi_i = np.floor(np.cbrt(a_cap - sf)).astype(np.int64) + 1
                w, row = _ragged_arange(np.maximum(lo_i, y3_min),
                                        np.minimum(hi_i, y3_max))
                if not len(w):
                    continue
                a = s[row] + w**3  # exact int64
                keep = (a > 0) & (a <= a_cap)
                if not keep.any():
                    continue
                w, row, a = w[keep], row[keep], a[keep]
                yield a, np.column_stack([np.full(len(w), u), v[row], w])

    for a, nu, pts in _alive_rows(candidates(), X, weight, block):
        n_eq = (pts[:, 0] == pts[:, 1]).astype(np.int64) \
            + (pts[:, 1] == pts[:, 2])
        yield a, _ORBIT_SIZE[n_eq], nu, pts


@dataclass
class CountTable:
    """Dense fiber table a -> N_{a,nu}(X) plus exact dyadic masses."""

    X: int
    weight: Weight
    offset: int  # index of a = 0; valid a are |a| <= offset
    bins: np.ndarray  # float64 masses N_{a,nu}(X)
    point_counts: np.ndarray  # int64 number of contributing lattice points
    n_alive: int
    witnesses: np.ndarray  # (k, 4) rows [y1, y2, y3, a]
    exact: dict  # a -> integer mass at scale 2^-EXACT_SHIFT
    # the orbit walk's rows in walk order: a > 0, orbit size k, nu
    orbit_a: np.ndarray
    orbit_k: np.ndarray
    orbit_nu: np.ndarray

    def value(self, a: int) -> float:
        if abs(a) > self.offset:
            return 0.0
        return float(self.bins[a + self.offset])

    def nonzero_items(self):
        idx = np.nonzero(self.bins)[0]
        return idx - self.offset, self.bins[idx]

    def total_mass(self) -> float:
        return float(self.bins.sum())

    def total_mass_exact(self) -> int:
        return sum(self.exact.values())

    def export_csv(self, path) -> None:
        a_vals, masses = self.nonzero_items()
        with open(path, "w") as fh:
            fh.write("a,N\n")
            for a, v in zip(a_vals, masses):
                fh.write(f"{a},{v:.17g}\n")


def count_weighted(X: int, weight: Weight, exact: bool = True) -> CountTable:
    """Weighted count N_{a,nu}(X) = sum over y in Z^3 of nu(y/X), per a.

    Runs on the orbit walk: each orbit adds k * nu to bin a and to bin -a, so
    the table is exactly symmetric.  The weight must be symmetric and very
    clean (ValueError otherwise).  Deterministic: blocks are enumerated and
    accumulated in a fixed order.  exact=False skips the dyadic-integer
    ledger (faster at large X).  The table keeps the walk's rows, which
    special_count reduces.
    """
    if X < 1:
        raise ValueError("X must be a positive integer")
    if not (weight.symmetric and weight.very_clean):
        raise ValueError(
            "lattice counts require a symmetric very-clean weight")
    if weight.B * X > _ENUM_BOUND:
        # B = ceil(11 R) may have hundreds of digits; print three significant
        raise ValueError(f"enumeration bound exceeded: "
                         f"B*X = {Decimal(weight.B * X):.3g} > {_ENUM_BOUND}")
    a_cap = int(math.floor(weight.a_support * X**3))
    if 2 * a_cap + 1 > _MAX_BINS:
        raise ValueError(
            f"dense fiber table would need {2 * a_cap + 1} bins; "
            f"reduce X (limit {_MAX_BINS})")
    # an empty first block, so that a walk without orbits concatenates too
    rows = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    witnesses = []
    for a, k, nu, reps in _iter_orbits(X, weight):
        rows.append((a, k, nu))
        if len(witnesses) < _WITNESS_CAP:
            take = min(_WITNESS_CAP - len(witnesses), len(a))
            witnesses.extend(
                np.column_stack([reps[:take], a[:take]]).tolist())
    a, k, nu = map(np.concatenate, zip(*rows))
    bins = np.zeros(2 * a_cap + 1)
    point_counts = np.zeros(2 * a_cap + 1, dtype=np.int64)
    np.add.at(bins, a + a_cap, k * nu)
    np.add.at(point_counts, a + a_cap, k)
    exact_map: dict = {}
    if exact:
        for ai, ki, vi in zip(a.tolist(), k.tolist(), nu.tolist()):
            exact_map[ai] = exact_map.get(ai, 0) + ki * _dyadic_int(vi)
    # the mirrored orbit halves land on -a
    bins[:a_cap] = bins[:a_cap:-1]
    point_counts[:a_cap] = point_counts[:a_cap:-1]
    exact_map.update({-ai: n for ai, n in exact_map.items()})
    return CountTable(
        X=X, weight=weight, offset=a_cap, bins=bins,
        point_counts=point_counts, n_alive=2 * int(k.sum()),
        witnesses=np.array(witnesses, dtype=np.int64).reshape(-1, 4),
        exact=exact_map, orbit_a=a, orbit_k=k, orbit_nu=nu,
    )


def table_at(X: int, weight: Weight | None,
             table: CountTable | None = None) -> CountTable:
    """The caller's table if given, else a float count_weighted(X, weight).

    A given table must be counted at X and, unless weight is None, with
    this weight object (ValueError otherwise)."""
    if table is None:
        return count_weighted(X, weight, exact=False)
    if table.X != X:
        raise ValueError(f"table was counted at X = {table.X}, not X = {X}")
    if weight is not None and table.weight is not weight:
        raise ValueError(
            f"table was counted with another weight ({table.weight.name}, "
            f"R = {table.weight.R}), not {weight.name} with R = {weight.R}")
    return table


def pair_count(X: int, d: int, weight: Weight | None,
               table: CountTable | None = None) -> float:
    """N_{nu x nu}(X; d) = sum over d | a of N_{a,nu}(X)^2."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    a_vals, masses = table_at(X, weight, table).nonzero_items()
    keep = a_vals % d == 0
    return float(np.dot(masses[keep], masses[keep]))


def pair_count_exact(table: CountTable, d: int) -> int:
    """Exact pair count as an integer at scale 2^-(2*EXACT_SHIFT)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if not table.exact:
        raise ValueError("table was built with exact=False")
    return sum(n * n for a, n in table.exact.items() if a % d == 0)


def pair_count_bruteforce(X: int, d: int, weight: Weight) -> int:
    """Oracle: enumerate ordered pairs (y, z) with F0(y) = F0(z) = a, d | a.

    Groups the points of the plain walk by fiber (_brute_fibers, independent
    of any CountTable and kept for the last X and weight), and sums
    nu(y/X) * nu(z/X) over every ordered pair within each fiber with d | a
    (all cross-fiber terms vanish).  Returns the exact integer at scale
    2^-(2*EXACT_SHIFT).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    total = 0
    for a, vals in _brute_fibers(X, weight).items():
        if a % d:
            continue
        for vi in vals:
            for vj in vals:
                total += vi * vj
    return total


@lru_cache(maxsize=1)
def _brute_fibers(X: int, weight: Weight) -> dict:
    """a -> exact dyadic nu of every support point on the fiber F0 = a."""
    fibers: dict = {}
    for a, nu, _pts in _iter_alive(X, weight, order=(2, 0, 1)):
        for ai, vi in zip(a.tolist(), nu.tolist()):
            fibers.setdefault(ai, []).append(_dyadic_int(vi))
    return fibers


def exact_to_float(n: int, scale: int = EXACT_SHIFT) -> float:
    """Correctly rounded float of n * 2^-scale."""
    return float(Fraction(n, 1 << scale))


@dataclass(frozen=True)
class SpecialCount:
    """Mass of the permutation-diagonal pairs (y, z) with z a permutation
    of y, F0(y) = F0(z) automatic, restricted to d | F0(y)."""

    X: int
    d: int
    weight_name: str
    diag: float  # sum over y of (#distinct permutations of y) * nu(y/X)^2
    formula_value: float  # 3! * sum over y of nu(y/X)^2
    correction: float  # mass the 3!-formula overcounts on repeated coords
    n_repeated: int  # contributing y with a repeated coordinate


def special_count(X: int, d: int, weight: Weight | None,
                  table: CountTable | None = None) -> SpecialCount:
    """Exact diagonal count; diag + correction = formula_value exactly.

    Each unordered orbit member is one pair partner, so y contributes
    orb(y) * nu^2 with orb = 6, 3, 1 for distinct, one-repeated, all-equal
    coordinates; the 3!-formula pretends orb = 6 always.  A reduction over
    the orbit rows of the table at X (table_at builds one if none is given):
    orb is the row's k, and the 2k points of a row share one nu value.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    table = table_at(X, weight, table)
    keep = table.orbit_a % d == 0  # d | a exactly when d | -a
    k, nu = table.orbit_k[keep], table.orbit_nu[keep]
    diag_i = formula_i = corr_i = 0
    for ki, vi in zip(k.tolist(), nu.tolist()):
        mass = 2 * ki * _dyadic_int(vi) ** 2  # nu^2 at 2k points
        diag_i += ki * mass
        formula_i += 6 * mass
        corr_i += (6 - ki) * mass
    if diag_i + corr_i != formula_i:  # exact integer identity
        raise CheckFailed(f"special count: diag + correction != formula at X={X}")
    return SpecialCount(
        X=X, d=d, weight_name=table.weight.name,
        diag=exact_to_float(diag_i, 2 * EXACT_SHIFT),
        formula_value=exact_to_float(formula_i, 2 * EXACT_SHIFT),
        correction=exact_to_float(corr_i, 2 * EXACT_SHIFT),
        n_repeated=2 * int(k[k < 6].sum()),
    )


def _pair_sums(limit: int) -> dict:
    """Multiset {x^3 + y^3 <= limit : x, y >= 0} as value -> multiplicity."""
    top = int(round(limit ** (1.0 / 3.0))) + 1
    while top**3 > limit:
        top -= 1
    while (top + 1) ** 3 <= limit:
        top += 1
    cubes = np.arange(top + 1, dtype=np.int64) ** 3
    sums = (cubes[:, None] + cubes[None, :]).ravel()
    sums = sums[sums <= limit]
    vals, cnt = np.unique(sums, return_counts=True)
    return dict(zip(vals.tolist(), cnt.tolist()))


def r3_nonneg(a: int, cap: int | None = None) -> int:
    """Ordered representations a = x^3 + y^3 + z^3 with x, y, z >= 0."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    if cap is not None and a > 3 * cap**3:
        raise ValueError(f"a = {a} exceeds 3*cap^3 = {3 * cap**3}")
    pairs = _pair_sums(a)
    total = 0
    z = 0
    while z**3 <= a:
        total += pairs.get(a - z**3, 0)
        z += 1
    return total


@dataclass(frozen=True)
class PrimeDemo:
    A: int
    n_primes: int
    sum_r3: int
    sum_r3_sq: int
    n_admissible_represented: int  # p not == +-4 mod 9 with r3(p) > 0
    fitted_constant: float  # C in sum r3(p) ~ C * A / log A


def prime_demo(A: int) -> PrimeDemo:
    """Exact sum of r3(p) over primes p <= A (nonnegative cubes)."""
    if not 2 <= A <= 10**6:
        raise ValueError("require 2 <= A <= 10^6")
    pairs = _pair_sums(A)
    pair_vals = np.fromiter(pairs.keys(), dtype=np.int64)
    pair_cnt = np.fromiter(pairs.values(), dtype=np.int64)
    lookup = np.zeros(A + 1, dtype=np.int64)
    lookup[pair_vals] = pair_cnt
    ps = np.array(primes_below(A + 1), dtype=np.int64)
    top = int(round(A ** (1.0 / 3.0))) + 1
    r3 = np.zeros(len(ps), dtype=np.int64)
    for z in range(top + 1):
        rem = ps - z**3
        ok = rem >= 0
        r3[ok] += lookup[rem[ok]]
    sum_r3 = int(r3.sum())
    admissible = ps % 9
    adm = (admissible != 4) & (admissible != 5)
    return PrimeDemo(
        A=A, n_primes=len(ps), sum_r3=sum_r3,
        sum_r3_sq=int(np.dot(r3, r3)),
        n_admissible_represented=int(np.count_nonzero(adm & (r3 > 0))),
        fitted_constant=sum_r3 * math.log(A) / A,
    )
