"""Lattice-point counting, pair counts, special counts, and r3 demos."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cubesums.lattice import (
    EXACT_SHIFT,
    _dyadic_int,
    _iter_alive,
    _iter_orbits,
    count_weighted,
    exact_to_float,
    pair_count,
    pair_count_bruteforce,
    pair_count_exact,
    prime_demo,
    r3_nonneg,
    special_count,
)
from cubesums import weights
from cubesums.arith import primes_below
from cubesums.weights import _r_rule_params, nu_star


@pytest.fixture(scope="module")
def nu2():
    return nu_star(2.0)


@pytest.fixture(scope="module")
def tab10(nu2):
    return count_weighted(10, nu2)


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


def test_r3_cap_guard():
    with pytest.raises(ValueError):
        r3_nonneg(100, cap=2)
    assert r3_nonneg(24, cap=2) == r3_nonneg(24)


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
    ex = exact_to_float(tab10.total_mass_exact())
    assert abs(ex - tab10.total_mass()) <= 1e-12 * ex


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


def test_walks_are_block_invariant(nu2):
    # nu is evaluated once per block of buffered candidates; a small block
    # cuts the v-slices and the buffer into many pieces, and every row,
    # its walk order and every bit of nu stay the same
    small, whole = _rows(_iter_orbits(16, nu2, block=64)), \
        _rows(_iter_orbits(16, nu2))
    assert len(whole[0]) > 64 * 20
    for got, want in zip(small, whole, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the plain walk takes each v-slice's two w-bands in turn, so its order
    # moves with the slice; compare its rows sorted by point
    small, whole = _rows(_iter_alive(10, nu2, block=64)), \
        _rows(_iter_alive(10, nu2))
    assert len(whole[0]) > 64 * 20
    for got, want in zip(small, whole, strict=True):
        got = got[np.lexsort(small[2].T)]
        want = want[np.lexsort(whole[2].T)]
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_count_evaluates_nu_once_per_block(nu2, monkeypatch):
    # count_weighted(20) has about 40k candidates, under one default block,
    # so the r-integral runs once (the parent walk made 288 calls, one per
    # leading coordinate and sign piece)
    _r_rule_params(nu2.R)  # the r-rule probes the integral too
    calls = []
    integral = weights._r_integral_fixed

    def counted(forms, *args):
        calls.append(len(forms))
        return integral(forms, *args)

    monkeypatch.setattr(weights, "_r_integral_fixed", counted)
    table = count_weighted(20, nu2, exact=False)
    assert 1 <= len(calls) <= 2
    assert sum(calls) >= len(table.orbit_a)


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
    assert tab10.value(0) == 0.0


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
    with pytest.raises(ValueError):
        special_count(2, 0, nu2)


def test_pair_counts_reject_d_zero(nu2, tab10):
    # d = 0 would divide by zero in a % d; pair_count and special_count
    # already reject it
    with pytest.raises(ValueError, match="d must be a positive integer"):
        pair_count_bruteforce(2, 0, nu2)
    with pytest.raises(ValueError, match="d must be a positive integer"):
        pair_count_exact(tab10, 0)
    with pytest.raises(ValueError, match="d must be a positive integer"):
        pair_count(10, 0, nu2, table=tab10)


def test_prime_demo_against_r3_oracle():
    demo = prime_demo(100)
    ps = primes_below(101)
    vals = [r3_nonneg(p) for p in ps]
    assert demo.n_primes == len(ps)
    assert demo.sum_r3 == sum(vals)
    assert demo.sum_r3_sq == sum(v * v for v in vals)
    assert demo.n_admissible_represented == sum(
        1 for p, v in zip(ps, vals) if p % 9 not in (4, 5) and v > 0)
    assert demo.fitted_constant > 0.0


def test_prime_demo_monotone():
    assert prime_demo(1000).sum_r3 >= prime_demo(100).sum_r3 > 0
