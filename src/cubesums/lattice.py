"""Exact lattice-point counting for F0(y) = y1^3 + y2^3 + y3^3.

count_weighted bins nu(y/X) over the integer points of the support of
nu = nu_star(R) by the exact integer value a = F0(y).  Enumeration runs over
(leading, second) coordinate pairs; the third coordinate is recovered from
the exact cube-root interval |F0| <= a_support * X^3, so the cost is
proportional to the slab volume, not the box volume.

The production walk (_iter_orbits) visits one point per orbit of coordinate
permutations and global sign.  nu_star is S3-symmetric and even, so nu is
constant on such an orbit, and F0 is permutation-invariant and odd.  nu_star
is very clean: no support point has a zero coordinate or y_i = -y_j, so
F0 != 0 there (Fermat, n = 3).  A sorted representative y1 <= y2 <= y3 with
F0(y) = a > 0 thus stands for exactly k = 6, 3 or 1 points at a and k points
at -a, and nu is evaluated once for all 2k of them.  count_weighted is the
only caller of this walk; its CountTable keeps the walk's rows (a, k, nu), so
special_count and pair_count reduce a table instead of walking again, and
_table_at is the one place that decides whether a caller's table is reused.
The plain walk over every support point (_iter_alive, with a choice of loop
order) is the oracle behind pair_count_bruteforce and the tests.

Both walks buffer their candidates and evaluate nu once per block of them
(_alive_rows): a call carries a fixed numpy cost, and one leading
coordinate has only a few dozen candidates.  nu_star.evaluate is row-pure,
so the block changes no bit of any value.  The orbit walk also forms its
candidates for many leading coordinates at once: it takes the (y1, y2)
pairs in pieces of up to _PAIR_PIECE (_pair_pieces) and the y3 ranges of a
whole piece with one ragged arange, in the order of a loop over y1, then
y2, then y3, so the table's float sums add in that loop's order.

Weighted masses are floats, but every mass is a dyadic rational, so exact
arithmetic is available on demand: each nu value converts losslessly to an
integer at scale 2^-EXACT_SHIFT, and fiber products / special counts then
compare as integers.  The brute-force pair oracles used in tests rely on
this to assert equality exactly rather than to within a tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import CheckFailed
from .arith import _check_positive_int, admissible, primes_below
from .weights import Weight

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
]

EXACT_SHIFT = 1100  # nu values have denominator at most 2^1074
_ENUM_BOUND = 10**5
_MAX_BINS = 1 << 27
_WITNESS_CAP = 1000
_BLOCK = 1 << 17  # candidates per nu call of either walk
_PAIR_PIECE = 1 << 14  # most (y1, y2) pairs in one piece of the orbit walk
# distinct permutations of a sorted triple with 0, 1, 2 adjacent equalities
_ORBIT_SIZE = np.array([6, 3, 1], dtype=np.int64)


def _dyadic_int(v: float) -> int:
    """Exact integer numerator of v at scale 2^-EXACT_SHIFT (v >= 0)."""
    n, d = v.as_integer_ratio()  # d is a power of two
    return n << (EXACT_SHIFT - (d.bit_length() - 1))


def _band_values(X: int, weight: Weight) -> np.ndarray:
    """Ascending integer values one support coordinate can take.

    Every support point of nu_star(R) has |y_l|/X > 1/2 (the first w2 band)
    and |y_l|/X <= B, so X//2 + 1 <= |y_l| <= B X.
    """
    pos = np.arange(X // 2 + 1, weight.B * X + 1, dtype=np.int64)
    return np.concatenate([-pos[::-1], pos])


def _ragged_arange(lo: np.ndarray, hi: np.ndarray):
    """Concatenate arange(lo_i, hi_i + 1) for every row; also row indices."""
    n = np.maximum(hi - lo + 1, 0)
    starts = np.cumsum(n) - n
    row = np.repeat(np.arange(len(n), dtype=np.int64), n)
    # element t of row r is lo_r + (t - starts_r)
    return np.arange(len(row), dtype=np.int64) + np.repeat(lo - starts, n), row


def _pair_pieces(m: int, size: int):
    """Yield (i, j) index arrays over the pairs 0 <= i <= j < m.

    The pairs come in lexicographic order, at most size of them per piece; a
    piece spans several leading indices i, or part of one whose j-range
    alone is longer than size.
    """
    # first[i] is the flat position of the pair (i, i)
    first = np.concatenate([[0], np.cumsum(np.arange(m, 0, -1))])
    for t0 in range(0, int(first[-1]), size):
        # the whole rows i0..i1 that hold the flat positions [t0, t0 + size)
        i0, i1 = np.searchsorted(first, [t0, t0 + size], side="right") - 1
        lead = np.arange(i0, min(i1 + 1, m), dtype=np.int64)
        j, row = _ragged_arange(lead, np.full(len(lead), m - 1))
        cut = slice(t0 - first[i0], t0 - first[i0] + size)
        yield lead[row[cut]], j[cut]


def _alive_rows(candidates, X: int, weight: Weight):
    """Yield (a, nu_values, points) for the live rows of the candidates.

    candidates yields (a, points) pieces in walk order.  nu is evaluated
    once per run of pieces holding at least _BLOCK candidates, and once more
    for the rest, and the live rows come out in walk order.  nu_star is
    row-pure, so every block size gives the same values.
    """
    buf, n_buf = [], 0
    for piece in candidates:
        buf.append(piece)
        n_buf += len(piece[0])
        if n_buf >= _BLOCK:
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


def _iter_alive(X: int, weight: Weight, order=(0, 1, 2)):
    """Yield (a, nu_values, points) blocks over every support lattice point.

    The oracle walk: nu is evaluated at each point, once per block of
    candidates.  order permutes which coordinate is enumerated as (leading,
    second, solved); the visited point set is identical for any order,
    which the loop-order oracle exploits.
    """
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
            for start in range(0, m, _BLOCK):
                v = band[start:start + _BLOCK]
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

    return _alive_rows(candidates(), X, weight)


def _iter_orbits(X: int, weight: Weight):
    """Yield (a, k, nu_values, reps) blocks, one row per S3 x {+-1} orbit.

    reps are the sorted points y1 <= y2 <= y3 with 0 < F0(y) = a <= a_cap;
    nu is evaluated once per rep, in one call per _BLOCK candidates, and k
    in {6, 3, 1} counts its distinct permutations.  The orbit is those k
    points at a and their negatives at -a, all of weight nu.  A walk piece
    holds at most _PAIR_PIECE (y1, y2) pairs.  count_weighted checks X and
    the weight.
    """
    band = _band_values(X, weight)
    cubes = band**3
    a_cap = int(math.floor(weight.a_support * X**3))
    m = len(band)
    # y3 is the largest coordinate and F0 > 0, so y3 lies in the positive band
    y3_min, y3_max = int(band[m // 2]), int(band[-1])

    def candidates():
        for i, j in _pair_pieces(m, _PAIR_PIECE):  # y2 >= y1
            s = cubes[i] + cubes[j]
            sf = s.astype(float)
            # y3 >= y2 and 0 < s + y3^3 <= a_cap, widened against cbrt
            # rounding
            lo_i = np.maximum(np.ceil(np.cbrt(-sf)).astype(np.int64) - 1,
                              band[j])
            hi_i = np.floor(np.cbrt(a_cap - sf)).astype(np.int64) + 1
            w, row = _ragged_arange(np.maximum(lo_i, y3_min),
                                    np.minimum(hi_i, y3_max))
            a = s[row] + w**3  # exact int64
            keep = (a > 0) & (a <= a_cap)
            if not keep.any():
                continue
            w, row, a = w[keep], row[keep], a[keep]
            yield a, np.column_stack([band[i[row]], band[j[row]], w])

    for a, nu, pts in _alive_rows(candidates(), X, weight):
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

    def nonzero_items(self):
        idx = np.nonzero(self.bins)[0]
        return idx - self.offset, self.bins[idx]


def count_weighted(X: int, weight: Weight, exact: bool = True) -> CountTable:
    """Weighted count N_{a,nu}(X) = sum over y in Z^3 of nu(y/X), per a.

    Runs on the orbit walk, which needs nu = nu_star(R) to be even and
    S3-symmetric: each orbit adds k * nu to bin a and to bin -a, so the table
    is exactly symmetric.  Deterministic: blocks are enumerated and
    accumulated in a fixed order.  exact=False skips the dyadic-integer
    ledger (faster at large X).  The table keeps the walk's rows, which
    special_count reduces.
    """
    _check_positive_int("X", X)
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


def _table_at(X: int, weight: Weight,
              table: CountTable | None = None) -> CountTable:
    """The caller's table if given, else a float count_weighted(X, weight).

    A given table must be counted at X with this weight object (ValueError
    otherwise)."""
    if table is None:
        return count_weighted(X, weight, exact=False)
    if table.X != X:
        raise ValueError(f"table was counted at X = {table.X}, not X = {X}")
    if table.weight is not weight:
        raise ValueError(
            f"table was counted with another weight ({table.weight.name}, "
            f"R = {table.weight.R}), not {weight.name} with R = {weight.R}")
    return table


def pair_count(X: int, d: int, weight: Weight,
               table: CountTable | None = None) -> float:
    """N_{nu x nu}(X; d) = sum over d | a of N_{a,nu}(X)^2."""
    _check_positive_int("d", d)
    a_vals, masses = _table_at(X, weight, table).nonzero_items()
    keep = a_vals % d == 0
    return float(np.dot(masses[keep], masses[keep]))


def pair_count_exact(table: CountTable, d: int) -> int:
    """Exact pair count as an integer at scale 2^-(2*EXACT_SHIFT)."""
    _check_positive_int("d", d)
    if not table.exact:
        raise ValueError("table was built with exact=False")
    return sum(n * n for a, n in table.exact.items() if a % d == 0)


def pair_count_bruteforce(X: int, d: int, weight: Weight) -> int:
    """Oracle: the mass of ordered pairs (y, z) with F0(y) = F0(z) = a, d | a.

    Groups the points of the plain walk by fiber (_brute_fibers, independent
    of any CountTable and kept for the last X and weight).  The sum of
    nu(y/X) * nu(z/X) over the ordered pairs of one fiber with d | a is the
    square of the fiber's sum (all cross-fiber terms vanish).  Returns the
    exact integer at scale 2^-(2*EXACT_SHIFT).
    """
    _check_positive_int("d", d)
    return sum(sum(vals) ** 2 for a, vals in _brute_fibers(X, weight).items()
               if a % d == 0)


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
    diag: float  # sum over y of (#distinct permutations of y) * nu(y/X)^2
    formula_value: float  # 3! * sum over y of nu(y/X)^2
    correction: float  # mass the 3!-formula overcounts on repeated coords
    n_repeated: int  # contributing y with a repeated coordinate


def special_count(X: int, d: int, weight: Weight,
                  table: CountTable | None = None) -> SpecialCount:
    """Exact diagonal count; diag + correction = formula_value exactly.

    Each unordered orbit member is one pair partner, so y contributes
    orb(y) * nu^2 with orb = 6, 3, 1 for distinct, one-repeated, all-equal
    coordinates; the 3!-formula pretends orb = 6 always.  A reduction over
    the orbit rows of the table at X (_table_at builds one if none is given):
    orb is the row's k, and the 2k points of a row share one nu value.
    """
    _check_positive_int("d", d)
    table = _table_at(X, weight, table)
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
        X=X, d=d,
        diag=exact_to_float(diag_i, 2 * EXACT_SHIFT),
        formula_value=exact_to_float(formula_i, 2 * EXACT_SHIFT),
        correction=exact_to_float(corr_i, 2 * EXACT_SHIFT),
        n_repeated=2 * int(k[k < 6].sum()),
    )


@lru_cache(maxsize=1)
def _pair_sums(limit: int) -> Counter:
    """Multiset {x^3 + y^3 <= limit : x, y >= 0} as value -> multiplicity."""
    cubes = []
    while len(cubes) ** 3 <= limit:
        cubes.append(len(cubes) ** 3)
    return Counter(u + v for u in cubes for v in cubes if u + v <= limit)


def r3_nonneg(a: int) -> int:
    """Ordered representations a = x^3 + y^3 + z^3 with x, y, z >= 0; the
    oracle of prime_demo, sharing none of its code.  One pair table serves
    every a below the same power of two."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    pairs = _pair_sums(1 << a.bit_length())
    total = 0
    z = 0
    while z**3 <= a:
        total += pairs[a - z**3]
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
    top = int(round(A ** (1.0 / 3.0))) + 1
    cubes = np.arange(top + 1, dtype=np.int64) ** 3
    sums = (cubes[:, None] + cubes[None, :]).ravel()
    pair_vals, pair_cnt = np.unique(sums[sums <= A], return_counts=True)
    # one byte per value keeps the A + 1 table small; r3 and the sums are
    # accumulated in int64
    if pair_cnt.max() > np.iinfo(np.uint8).max:
        raise CheckFailed(f"a pair multiplicity below {A} exceeds one byte")
    lookup = np.zeros(A + 1, dtype=np.uint8)
    lookup[pair_vals] = pair_cnt
    ps = np.array(primes_below(A + 1), dtype=np.int64)
    r3 = np.zeros(len(ps), dtype=np.int64)
    for z in range(top + 1):
        i0 = np.searchsorted(ps, z**3)  # the primes p >= z^3
        r3[i0:] += lookup[ps[i0:] - z**3]
    sum_r3 = int(r3.sum())
    adm = admissible(ps)
    return PrimeDemo(
        A=A, n_primes=len(ps), sum_r3=sum_r3,
        sum_r3_sq=int(np.dot(r3, r3)),
        n_admissible_represented=int(np.count_nonzero(adm & (r3 > 0))),
        fitted_constant=sum_r3 * math.log(A) / A,
    )
