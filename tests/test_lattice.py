"""Lattice-point counting, pair counts, special counts, and r3 demos."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cubesums.lattice import (
    EXACT_SHIFT,
    _ORBIT_SIZE,
    _PAIR_PIECE,
    _band_values,
    _dyadic_int,
    _iter_alive,
    _iter_orbits,
    _pair_pieces,
    _ragged_arange,
    count_weighted,
    exact_to_float,
    pair_count,
    pair_count_bruteforce,
    pair_count_exact,
    prime_demo,
    r3_nonneg,
    special_count,
)
from cubesums import lattice, weights
from cubesums.arith import is_prime, primes_below
from cubesums.weights import _r_rule_params, nu_star


@pytest.fixture(scope="module")
def nu2():
    return nu_star(2.0)


@pytest.fixture(scope="module")
def tab10(nu2):
    return count_weighted(10, nu2)


def _table_digest(table):
    h = hashlib.sha256()
    for arr in (table.bins, table.point_counts, table.witnesses,
                table.orbit_a, table.orbit_k, table.orbit_nu):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(list(table.exact.items())).encode())
    return h.hexdigest()


# frozen from the per-leading-coordinate walk: the float bins are np.add.at
# sums in walk order, so they pin the order along with every value
_TABLE_DIGESTS = {
    (8, False): "914e512e52f287ef001c458202617fbc7093645f7e4962e1e20cf3d0252af877",
    (8, True): "30b13fab9d836fdbf50847792b40908b963167beca5dd10dd51f9025bbddcf2f",
    (16, False): "01a2ea1ce91708f8df56bf08c6dd6744756d76356b8966a59f709fd6412ac132",
    (16, True): "5e909e9149467d3b63de40e42fd02dfd31f59a0f2166d762dd398c92bbb54deb",
    (20, False): "5fc3e3fb8156afac5c5868ab93cd6b1aa3321a9372e33c9fef01215a72079731",
    (20, True): "8f5a98ab8a0a222856f93c9cf3bc01f82ec599c039d578f2640ab5dd967dd042",
}
_PRIME_DEMO_DIGESTS = {
    2: "fa6d867d6b08e0fcf43372dfcbe5f697f22ecfabb59aaff6a704b391471e9150",
    3: "5ea9bb3cef619a4ba24ed99e0c8a5f88171e86e28184361af43f9fae1014173d",
    1000: "8af901fc444379c92885a7fd6e6eafa0afcbb507e0af27c30d54c293acbc08dd",
    998063: "b9928cf7c3fd9d9d4af48fcca7901ef729e6945a08623cd47269a88ac6b2d4d8",
    10**6: "a8a3d23cb8a6e3ae2690e1e14bfe7219e9bc519af89e50209fd8326263decb18",
}


@pytest.mark.parametrize("X,exact", sorted(_TABLE_DIGESTS))
def test_count_weighted_frozen_digest(nu2, X, exact):
    table = count_weighted(X, nu2, exact=exact)
    assert _table_digest(table) == _TABLE_DIGESTS[X, exact]


@pytest.mark.parametrize("A", sorted(_PRIME_DEMO_DIGESTS))
def test_prime_demo_frozen_digest(A):
    digest = hashlib.sha256(repr(prime_demo(A)).encode()).hexdigest()
    assert digest == _PRIME_DEMO_DIGESTS[A]


def test_r3_frozen_values():
    assert r3_nonneg(0) == 1
    assert r3_nonneg(1) == 3
    assert r3_nonneg(2) == 3
    assert r3_nonneg(3) == 1
    assert r3_nonneg(1729) == 12


def test_r3_obstructed_classes():
    # cubes are 0, +-1 mod 9, so sums of three avoid 4, 5 mod 9
    for a in (4, 5, 13, 31, 49, 76, 851):
        assert a % 9 in (4, 5)
        assert r3_nonneg(a) == 0


def test_r3_orbit_identity():
    # ordered count = 6*(distinct) + 3*(two equal) + (all equal)
    top = 17  # covers all a <= 5000
    ordered = np.zeros(5001, dtype=np.int64)
    for x in range(top + 1):
        for y in range(x, top + 1):
            for z in range(y, top + 1):
                a = x**3 + y**3 + z**3
                if a > 5000:
                    break
                if x < y < z:
                    ordered[a] += 6
                elif x == y == z:
                    ordered[a] += 1
                else:
                    ordered[a] += 3
    for a in range(0, 5001, 7):
        assert r3_nonneg(a) == ordered[a]


def test_count_weighted_X1(nu2):
    tab = count_weighted(1, nu2)
    a_vals, masses = tab.nonzero_items()
    # the only representations inside the bands are the signed permutations
    # of (9,10,-12), (6,8,-9) -> +-1 and (5,6,-7) -> +-2
    assert list(a_vals) == [-2, -1, 1, 2]
    assert tab.n_alive == 36
    assert np.all(masses > 0.0)
    assert np.all(np.abs(a_vals) <= 3)
    assert np.abs(tab.witnesses[:, :3]).min() >= 1


def test_count_table_symmetry_and_mass(tab10):
    # nu is even and F0 odd, so the table is symmetric under a -> -a
    assert np.array_equal(tab10.point_counts, tab10.point_counts[::-1])
    assert np.allclose(tab10.bins, tab10.bins[::-1], rtol=1e-12, atol=0)
    ex = exact_to_float(sum(tab10.exact.values()))
    assert abs(ex - float(tab10.bins.sum())) <= 1e-12 * ex


def test_count_weighted_deterministic(nu2, tab10):
    again = count_weighted(10, nu2)
    assert np.array_equal(tab10.bins, again.bins)
    assert tab10.exact == again.exact


def test_loop_order_oracle(nu2, tab10):
    # the orbit walk against the plain per-point walk in every loop order
    for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        bins = np.zeros_like(tab10.bins)
        counts = np.zeros_like(tab10.point_counts)
        exact = {}
        for a, nu, _pts in _iter_alive(10, nu2, order=order):
            np.add.at(bins, a + tab10.offset, nu)
            np.add.at(counts, a + tab10.offset, 1)
            for ai, vi in zip(a.tolist(), nu.tolist()):
                exact[ai] = exact.get(ai, 0) + _dyadic_int(vi)
        assert int(counts.sum()) == tab10.n_alive
        assert np.array_equal(counts, tab10.point_counts)
        assert exact == tab10.exact
        assert np.allclose(bins, tab10.bins, rtol=1e-12, atol=1e-18)


def _rows(walk):
    return [np.concatenate(col) for col in zip(*walk)]


def _ragged_reference(lo, hi):
    pairs = [(x, r) for r, (lo_r, hi_r) in enumerate(zip(lo, hi))
             for x in range(lo_r, hi_r + 1)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def test_ragged_arange_matches_python():
    rng = np.random.default_rng(11)
    lo = rng.integers(-50, 50, 200)
    cases = [(lo, lo + rng.integers(-5, 12, 200)),  # some rows have hi < lo
             (lo, lo - 1 - rng.integers(0, 3, 200)),  # every row empty
             (lo[:0], lo[:0]),  # no rows
             (lo[:1], lo[:1] + 9)]  # a single row
    for lo_c, hi_c in cases:
        got, row = _ragged_arange(lo_c, hi_c)
        assert got.dtype == row.dtype == np.int64
        assert (got.tolist(), row.tolist()) == _ragged_reference(lo_c, hi_c)


def test_pair_pieces_cover_the_triangle_in_order():
    for m, size in ((1, 1), (5, 1), (5, 3), (9, 9), (9, 10), (40, 7),
                    (40, 100), (40, 2000)):
        pieces = list(_pair_pieces(m, size))
        assert all(1 <= len(i) <= size for i, _j in pieces)
        i, j = (np.concatenate(col) for col in zip(*pieces))
        assert list(zip(i.tolist(), j.tolist())) == \
            [(a, b) for a in range(m) for b in range(a, m)]


def _orbits_by_leading_coordinate(X, weight):
    """The orbit walk as one loop per leading coordinate: the order reference.

    Candidates come in (y1, y2, y3) lexicographic order, y1 <= y2 <= y3,
    each y3 from the widened cube-root interval and kept when
    0 < F0 <= a_cap; nu is evaluated in one call.
    """
    band = _band_values(X, weight)
    a_cap = int(math.floor(weight.a_support * X**3))
    m = len(band)
    y3_min, y3_max = int(band[m // 2]), int(band[-1])
    a_rows, pts_rows = [], []
    for i in range(m):
        u = int(band[i])
        v = band[i:]
        s = u**3 + v**3
        sf = s.astype(float)
        lo = np.maximum(np.ceil(np.cbrt(-sf)).astype(np.int64) - 1, v)
        hi = np.floor(np.cbrt(a_cap - sf)).astype(np.int64) + 1
        lo, hi = np.maximum(lo, y3_min), np.minimum(hi, y3_max)
        for r in np.flatnonzero(lo <= hi).tolist():
            for w in range(int(lo[r]), int(hi[r]) + 1):
                a = int(s[r]) + w**3
                if 0 < a <= a_cap:
                    a_rows.append(a)
                    pts_rows.append((u, int(v[r]), w))
    a = np.array(a_rows, dtype=np.int64)
    pts = np.array(pts_rows, dtype=np.int64)
    nu = weight.evaluate(pts.astype(float) / X)
    alive = nu > 0.0
    a, nu, pts = a[alive], nu[alive], pts[alive]
    n_eq = (pts[:, 0] == pts[:, 1]).astype(np.int64) + (pts[:, 1] == pts[:, 2])
    return [a, _ORBIT_SIZE[n_eq], nu, pts]


def _assert_same_rows(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _set_block(monkeypatch, block):
    # block candidates per nu call and at most min(block, _PAIR_PIECE)
    # (y1, y2) pairs per walk piece
    monkeypatch.setattr(lattice, "_BLOCK", block)
    monkeypatch.setattr(lattice, "_PAIR_PIECE", min(block, _PAIR_PIECE))


def test_orbit_walk_pieces_keep_rows_and_order(nu2, monkeypatch):
    # the walk takes its (y1, y2) pairs in pieces of at most
    # min(block, _PAIR_PIECE); any block gives the rows of the
    # per-leading-coordinate walk, in its order, with every bit of nu
    sizes = []

    def spied(m, size):
        for piece in pair_pieces(m, size):
            sizes.append(len(piece[0]))
            yield piece

    pair_pieces = _pair_pieces
    monkeypatch.setattr(lattice, "_pair_pieces", spied)
    m = len(_band_values(16, nu2))  # the first leading coordinate's pairs
    want = _orbits_by_leading_coordinate(16, nu2)
    assert len(want[0]) > 64 * 20
    for block in (7, 64, m - 1, m, m + 1, 1 << 17):
        sizes.clear()
        _set_block(monkeypatch, block)
        _assert_same_rows(_rows(_iter_orbits(16, nu2)), want)
        assert max(sizes) == min(block, _PAIR_PIECE)
        assert sum(sizes) == m * (m + 1) // 2
    # one pair per piece: 237k pieces at X = 16, so a smaller lattice
    sizes.clear()
    _set_block(monkeypatch, 1)
    _assert_same_rows(_rows(_iter_orbits(4, nu2)),
                      _orbits_by_leading_coordinate(4, nu2))
    assert max(sizes) == 1


def test_walks_are_block_invariant(nu2, monkeypatch):
    # nu is evaluated once per block of buffered candidates; a small block
    # cuts the pair pieces, the v-slices and the buffer into many pieces,
    # and every row, its walk order and every bit of nu stay the same
    whole = _rows(_iter_orbits(16, nu2))
    whole_alive = _rows(_iter_alive(10, nu2))
    _set_block(monkeypatch, 64)
    small = _rows(_iter_orbits(16, nu2))
    assert len(whole[0]) > 64 * 20
    for got, want in zip(small, whole, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the plain walk takes each v-slice's two w-bands in turn, so its order
    # moves with the slice; compare its rows sorted by point
    small, whole = _rows(_iter_alive(10, nu2)), whole_alive
    assert len(whole[0]) > 64 * 20
    for got, want in zip(small, whole, strict=True):
        got = got[np.lexsort(small[2].T)]
        want = want[np.lexsort(whole[2].T)]
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_count_evaluates_nu_once_per_block(nu2, monkeypatch):
    # count_weighted(20) has about 40k candidates, under one default block,
    # so nu is evaluated once; evaluate takes its rows in blocks of 2^14, so
    # no r-integral call receives more rows than that
    _r_rule_params(nu2.R)  # the r-rule probes the integral too
    calls, rows = [], []
    evaluate, integral = weights.Weight.evaluate, weights._r_integral_fixed

    def counted(self, pts):
        calls.append(len(pts))
        return evaluate(self, pts)

    def sized(forms, *args):
        rows.append(len(forms))
        return integral(forms, *args)

    monkeypatch.setattr(weights.Weight, "evaluate", counted)
    monkeypatch.setattr(weights, "_r_integral_fixed", sized)
    table = count_weighted(20, nu2, exact=False)
    assert 1 <= len(calls) <= 2
    assert sum(calls) >= len(table.orbit_a)
    assert rows and max(rows) <= 1 << 14


def test_witnesses_satisfy_F0(tab10):
    w = tab10.witnesses
    assert len(w) > 0
    assert np.array_equal(w[:, 0] ** 3 + w[:, 1] ** 3 + w[:, 2] ** 3, w[:, 3])


def test_count_weighted_guards(nu2):
    with pytest.raises(ValueError):
        count_weighted(0, nu2)
    with pytest.raises(ValueError):
        count_weighted(5000, nu2)  # B*X = 110000 over the bound


def test_dyadic_int_matches_fraction():
    rng = np.random.default_rng(5)
    tiny = rng.uniform(0.0, 1.0, 50) * 2.0 ** rng.integers(-1080, 10, 50)
    for v in [0.0, 1.0, 5e-324] + rng.uniform(0.0, 3.0, 200).tolist() \
            + tiny.tolist():
        f = Fraction(v)
        assert _dyadic_int(v) == \
            f.numerator << (EXACT_SHIFT - (f.denominator.bit_length() - 1))


def test_pair_count_matches_brute(nu2, tab10):
    for d in (1, 2, 3):
        ex = pair_count_exact(tab10, d)
        assert ex == pair_count_bruteforce(10, d, nu2)
        fl = pair_count(10, d, nu2, table=tab10)
        assert abs(exact_to_float(ex, 2 * EXACT_SHIFT) - fl) <= 1e-12 * fl


def test_pair_count_d1_is_sum_of_squares(nu2, tab10):
    _a, masses = tab10.nonzero_items()
    direct = float(np.dot(masses, masses))
    assert pair_count(10, 1, nu2, table=tab10) == direct


def test_pair_count_huge_modulus(nu2, tab10):
    # only a = 0 survives, and x^3+y^3 = -z^3 has no clean solutions
    assert pair_count(10, 10**15, nu2, table=tab10) == 0.0
    assert tab10.bins[tab10.offset] == 0.0


def test_special_count_identity(nu2):
    sc = special_count(10, 1, nu2)
    assert sc.n_repeated > 0
    assert sc.diag > 0.0
    assert abs(sc.diag + sc.correction - sc.formula_value) \
        <= 1e-12 * sc.formula_value
    sc2 = special_count(10, 2, nu2)
    assert sc2.formula_value <= sc.formula_value


def test_special_count_matches_per_point_oracle(nu2, tab10):
    # every support point y contributes (#distinct permutations) * nu(y)^2
    points = []
    for a, nu, pts in _iter_alive(10, nu2):
        for ai, vi, y in zip(a.tolist(), nu.tolist(), pts.tolist()):
            points.append((ai, _dyadic_int(vi) ** 2,
                           len(set(itertools.permutations(y)))))
    for d in (1, 2, 3):
        fib = [(sq, orb) for ai, sq, orb in points if ai % d == 0]
        diag = sum(orb * sq for sq, orb in fib)
        formula = sum(6 * sq for sq, _orb in fib)
        sc = special_count(10, d, nu2)
        assert sc.diag == exact_to_float(diag, 2 * EXACT_SHIFT)
        assert sc.formula_value == exact_to_float(formula, 2 * EXACT_SHIFT)
        assert sc.correction == exact_to_float(formula - diag, 2 * EXACT_SHIFT)
        assert sc.n_repeated == sum(1 for _sq, orb in fib if orb < 6)
        # the reduction of a given (exact-ledger) table, field for field
        assert special_count(10, d, nu2, table=tab10) == sc


def test_special_count_guards(nu2):
    with pytest.raises(ValueError):
        special_count(0, 1, nu2)  # an empty band, not an IndexError
    with pytest.raises(ValueError):
        special_count(5000, 1, nu2)  # B*X = 110000 over the bound
    for d in (0, 1.5):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            special_count(2, d, nu2)


def test_pair_counts_reject_d_zero(nu2, tab10):
    # d = 0 would divide by zero in a % d, and d = 1.5 would count the
    # multiples of 3
    for d in (0, 1.5):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            pair_count_bruteforce(2, d, nu2)
        with pytest.raises(ValueError, match="d must be a positive integer"):
            pair_count_exact(tab10, d)
        with pytest.raises(ValueError, match="d must be a positive integer"):
            pair_count(10, d, nu2, table=tab10)
    # a numpy integer is an integer
    d = np.int64(3)
    assert pair_count_exact(tab10, d) == pair_count_exact(tab10, 3)
    assert pair_count(10, d, nu2, table=tab10) == pair_count(
        10, 3, nu2, table=tab10)
    assert special_count(10, d, nu2, table=tab10) == special_count(
        10, 3, nu2, table=tab10)


def test_prime_demo_against_r3_oracle():
    assert is_prime(1009)  # A itself is one of the primes counted
    for A in (2, 3, 100, 1009):
        demo = prime_demo(A)
        ps = primes_below(A + 1)
        vals = [r3_nonneg(p) for p in ps]
        assert demo.n_primes == len(ps)
        assert demo.sum_r3 == sum(vals)
        assert demo.sum_r3_sq == sum(v * v for v in vals)
        assert demo.n_admissible_represented == sum(
            1 for p, v in zip(ps, vals) if p % 9 not in (4, 5) and v > 0)
        assert demo.fitted_constant > 0.0


def test_prime_demo_monotone():
    assert prime_demo(1000).sum_r3 >= prime_demo(100).sum_r3 > 0
