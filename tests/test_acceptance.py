"""Acceptance suite: one test per criterion, pinned tolerances.

Each test is a single pass/fail line under ``pytest -v``.  Tolerances are
module constants; exact statements are compared in integers or rationals.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cubesums import expsums as E
from cubesums import lattice as L
from cubesums import series as S
from cubesums import variance as V
from cubesums.arith import divisors, primes_below
from cubesums.densities import (
    mixed_l1_moment,
    poisson_check,
    poisson_trend,
    pure_l2_moment,
    sigma_inf,
)
from cubesums.weights import nu_star

RUNTIME_CAP_LOCAL_SUITE = 300.0  # seconds, criterion 1
RUNTIME_CAP_PRIME_SCAN = 60.0  # seconds, criterion 9
TOL_MOMENT_MATCH = 1e-3  # criterion 4, pure vs mixed
TOL_RESCALING = 1e-6  # criterion 4, sigma rescaling law
TOL_VARIANCE_DECOMP = 1e-6  # criterion 6
TOL_GROWTH_DIP = 0.10  # criterion 7, allowed ratio dip
POISSON_REGRESSION_AT_80 = 1e-2  # criterion 5, recorded at first run
PRIME_CONSTANT_FACTOR = 2.0  # criterion 9


@pytest.fixture(scope="module")
def nu2():
    return nu_star(2.0)


def _mixed_group(m: int, d: int) -> Fraction:
    """sum over n | m with lcm(n, d) = m of
    (nd)^-3 sum_{e in (Z/nd)^3, d | F0(e)} T_{F0(e)}(n)/n^3, exactly."""
    tot = Fraction(0)
    for n in divisors(m):
        if math.lcm(n, d) != m:
            continue
        nd = n * d
        counts = E.point_count_vector(nd)
        bs = np.arange(0, nd, d, dtype=np.int64)
        t = E.t_full(n)
        tot += Fraction(int(np.sum(counts[bs].astype(object) * t[bs % n])),
                        nd**3 * n**3)
    return tot


def test_criterion_01_exact_local_identity_suite():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20230823)

    # multiplicativity on 200 random coprime pairs with moduli <= 100
    done = 0
    while done < 200:
        n1 = int(rng.integers(2, 101))
        n2 = int(rng.integers(2, 101))
        if math.gcd(n1, n2) != 1:
            continue
        a = int(rng.integers(0, n1 * n2))
        assert int(E.t_single(a, n1 * n2)) == \
            int(E.t_single(a % n1, n1)) * int(E.t_single(a % n2, n2))
        done += 1

    # vanishing: T_a(p^l) = 0 when p^{l-1} does not divide 3a, p^l <= 3000
    for p in primes_below(55):
        l = 2
        while p**l <= 3000:
            t = E.t_prime_power(p, l)
            a = np.arange(p**l)
            mask = (3 * a) % p ** (l - 1) != 0
            assert not np.any(np.asarray(t, dtype=object)[mask]), (p, l)
            l += 1

    # mod-p bounds, exact integer comparisons:
    #   p not dividing 3a: |T_a(p)| <= (6 + 2 p^{-1/2}) p^2
    #   otherwise:         |T_a(p)| <= 6 p^{5/2}
    #   p >= 7:            |T_a(p)| <  0.99 p^3
    for p in primes_below(501):
        t = E.t_prime_power(p, 1)
        for a in range(p):
            val = abs(int(t[a]))
            if a % p != 0 and p != 3:
                excess = val - 6 * p**2
                assert excess <= 0 or excess * excess * p <= 4 * p**4, (p, a)
            else:
                assert val * val <= 36 * p**5, (p, a)
            if p >= 7:
                assert 100 * val < 99 * p**3, (p, a)

    # double-T_b and convenient-generic-bound on the prime-power grid,
    # plus multiplicative combinations
    grid = []
    for p in (2, 3, 5, 7, 11, 13):
        for f in (1, 2, 3):
            if p**f > 3000:
                continue
            for e in range(0, f):
                grid.append((p, e, f))
    for p, e, f in grid:
        lhs = int(np.sum(np.asarray(E.t_prime_power(p, f),
                                    dtype=object)[::p**e] ** 2))
        assert lhs == p**f * E.s_plus_zero(p**f, p**e), (p, e, f)
        assert abs(E.s_plus_zero(p**f, p**e)) <= abs(E.s_plus_zero(p**f, 1))
    for p1, e1, f1 in grid[:8]:
        for p2, e2, f2 in grid:
            if p1 == p2 or p1**f1 * p2**f2 > 3000:
                continue
            n, d = p1**f1 * p2**f2, p1**e1 * p2**e2
            assert E.s_plus_zero(n, d) == \
                E.s_plus_zero(p1**f1, p1**e1) * E.s_plus_zero(p2**f2, p2**e2)
            assert abs(E.s_plus_zero(n, d)) <= abs(E.s_plus_zero(n, 1))

    # mixed-T_b: point-count-weighted enumeration matches S+_0(m;d)/m^6
    for m in range(1, 51):
        for d in divisors(m):
            assert _mixed_group(m, d) == Fraction(E.s_plus_zero(m, d), m**6)

    # unbalanced vanishing for n1, n2, d <= 12 with lcm(n1,d) != lcm(n2,d)
    n_checked = 0
    for n1 in range(1, 13):
        t1 = E.t_full(n1)
        for n2 in range(1, 13):
            t2 = E.t_full(n2)
            for d in range(1, 13):
                if math.lcm(n1, d) == math.lcm(n2, d):
                    continue
                b = np.arange(0, n1 * n2 * d, d, dtype=np.int64)
                assert int(np.sum(t1[b % n1] * t2[b % n2])) == 0, (n1, n2, d)
                n_checked += 1
    assert n_checked > 0
    # the (4, 8, 1) case cancels as four +4096 against four -4096
    b = np.arange(32, dtype=np.int64)
    prods = np.sort(E.t_full(4)[b % 4] * E.t_full(8)[b % 8])
    nz = prods[prods != 0]
    assert nz.tolist() == [-4096] * 4 + [4096] * 4

    # divisor identity N_a(q)/q^2 = sum_{n|q} T_a(n)/n^3 for q <= 100
    for q in range(1, 101):
        nv = E.point_count_vector(q)
        acc = np.zeros(q, dtype=object)
        for n in divisors(q):
            acc += np.asarray(E.t_full(n), dtype=object)[np.arange(q) % n] \
                * (q // n) ** 3
        assert np.array_equal(acc, nv.astype(object) * q)

    assert time.perf_counter() - t_start < RUNTIME_CAP_LOCAL_SUITE


def test_criterion_02_ground_truths_two_routes():
    # route 1: point-count convolution; route 2: definitional float sum
    t7 = E.t_full(7)
    d7 = E.t_direct(7)
    assert np.array_equal(np.rint(d7).astype(np.int64), t7)
    assert int(t7[0]) == 42 and int(t7[1]) == 287
    for n, allowed in ((4, {16, -16, 0}), (8, {256, -256, 0})):
        tn = E.t_full(n)
        dn = E.t_direct(n)
        assert np.array_equal(np.rint(dn).astype(np.int64), tn)
        assert set(int(v) for v in tn) <= allowed
    # twisted diagonal sum by prime-power formula vs brute double sum
    assert E.s_plus_zero(4, 2) == 128
    assert E.s_plus_zero(4, 1) == 128
    assert E.s_plus_zero_bruteforce(4, 2)[0] == 128
    assert E.s_plus_zero_bruteforce(4, 1)[0] == 128
    assert S.s_value(0, 4) == Fraction(5, 4)


def test_criterion_03_fiber_product_vs_bruteforce(nu2):
    table = L.count_weighted(30, nu2, exact=True)
    for d in (1, 2, 3):
        assert L.pair_count_exact(table, d) == \
            L.pair_count_bruteforce(30, d, nu2)


def test_criterion_04_pure_vs_mixed_and_rescaling(nu2):
    for R, weight in ((2.0, nu2), (4.0, nu_star(4.0))):
        pure = pure_l2_moment(weight)
        mixed = mixed_l1_moment(weight, rel_tol=1e-4)
        assert abs(pure - mixed) / pure < TOL_MOMENT_MATCH, R
    rng = np.random.default_rng(4)
    for _ in range(50):
        atil = rng.uniform(-3.0, 3.0)
        X = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.5, 2.0)
        v1 = sigma_inf(atil * X**3, X, nu2)
        v2 = sigma_inf(atil * (X * t) ** 3, X * t, nu2)
        ref = max(abs(v1), 1e-12)
        assert abs(v1 - v2) / ref < TOL_RESCALING


def test_criterion_05_poisson_deviation_trend(nu2):
    worst_at_80 = 0.0
    for N in range(1, 9):
        trend = poisson_trend(nu2, N, 0)
        assert trend.decreasing, N
        worst_at_80 = max(worst_at_80, trend.reports[-1].rel_deviation)
    assert worst_at_80 < POISSON_REGRESSION_AT_80
    assert poisson_check(nu2, 80, 5, 1).rel_deviation < POISSON_REGRESSION_AT_80


def test_criterion_06_variance_decomposition(nu2):
    for X, K, d in ((30, 4, 1), (40, 8, 2)):
        rep = V.variance(X, K, d, nu2)
        assert rep.decomposition_rel_err < TOL_VARIANCE_DECOMP, (X, K, d)


def test_criterion_07_log_R_growth():
    ratios = [sigma_inf(0.0, 1.0, nu_star(R)) / math.log(R)
              for R in (2.0, 4.0, 8.0, 16.0)]
    assert all(r > 0 for r in ratios)
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt >= prev * (1.0 - TOL_GROWTH_DIP)


def test_criterion_08_truncated_moment_regrouping_exact():
    # per-group equality with S+_0(m;d)/m^6, modulus collapse, unbalanced
    # vanishing, and the enumerated-tail bound are asserted inside the check
    for d in range(1, 9):
        for K in range(1, 49):
            V.nonarch_moment_check(K, d)


def test_criterion_09_prime_scan():
    t0 = time.perf_counter()
    demo5 = L.prime_demo(10**5)
    assert time.perf_counter() - t0 < RUNTIME_CAP_PRIME_SCAN
    demo4 = L.prime_demo(10**4)
    # r_3 over primes is exact integer data; frozen from the hash join
    assert demo5.sum_r3 == sum(
        L.r3_nonneg(p) for p in primes_below(10**5 + 1))
    ratio = demo5.fitted_constant / demo4.fitted_constant
    assert 1.0 / PRIME_CONSTANT_FACTOR < ratio < PRIME_CONSTANT_FACTOR


def test_criterion_10_chebyshev_pipeline():
    rep = V.pipeline_demo(R_list=(2.0, 4.0), X_list=(60,), j=2)
    assert all(row.chebyshev_ok for row in rep.rows)
    assert rep.fractions_non_increasing_in_R(60)
