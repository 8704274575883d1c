import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubesums import expsums as E
from cubesums.arith import divisors, is_prime, primes_below, v_p


def tv(a, n):
    return E.t_single(a, n)


# ---------------------------------------------------------------- histograms


def test_cube_counts_frozen():
    assert list(E.cube_counts(7)) == [1, 3, 0, 0, 0, 0, 3]
    assert list(E.cube_counts(4)) == [2, 1, 0, 1]
    assert list(E.cube_counts(1)) == [1]


def test_cube_counts_mass():
    for m in [2, 3, 9, 16, 27, 30, 63, 128]:
        assert E.cube_counts(m).sum() == m


def test_point_counts_frozen():
    assert int(E.point_count_vector(7)[0]) == 55
    assert int(E.point_count_vector(7)[1]) == 90
    assert list(E.point_count_vector(2)) == [4, 4]


def test_point_counts_against_bruteforce():
    # full enumeration oracle at small moduli, including prime powers
    for m in [*range(1, 65), 255, 256]:
        assert np.array_equal(E.point_count_vector(m), E.point_counts_bruteforce(m))


def test_bruteforce_matches_triple_loop():
    # the pair-histogram oracle against the plain count over (Z/m)^3
    for m in range(1, 13):
        counts = [0] * m
        for x, y, z in itertools.product(range(m), repeat=3):
            counts[(x**3 + y**3 + z**3) % m] += 1
        assert E.point_counts_bruteforce(m).tolist() == counts, m


def test_point_counts_total_mass():
    for m in [11, 12, 100, 243, 1024]:
        assert int(E.point_count_vector(m).sum()) == m**3


def _folded_convolve(a, b, m):
    # oracle: numpy's direct linear convolution folded back mod m
    lin = np.convolve(a, b)
    folded = lin[:m].copy()
    folded[: m - 1] += lin[m:]
    return folded


def test_cyclic_conv_matches_numpy_convolve():
    rng = np.random.default_rng(5)
    cases = [(rng.integers(0, m + 1, size=m), rng.integers(0, m + 1, size=m), m)
             for m in [1, 2, 3, 17, 360, 1000, 4099, 8191]]
    # both stages of the point-count convolution on cube histograms
    for m in [4096, 4489, 7919, 8192]:
        c = E.cube_counts(m)
        cases += [(c, c, m), (_folded_convolve(c, c, m), c, m)]
    for a, b, m in cases:
        got = E._cyclic_conv(a, b, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, _folded_convolve(a, b, m)), m


def _kronecker_counts(m):
    # oracle: the triple cyclic self-convolution of the cube histogram
    c = E.cube_counts(m)
    return E._cyclic_conv(E._cyclic_conv(c, c, m), c, m)


def test_point_counts_match_kronecker_oracle():
    moduli = list(range(1, 1001))
    for p in [2, 3, 5, 7, 11, 13]:  # every power up to 20000
        moduli += [p**l for l in range(1, 20) if 1000 < p**l <= 20000]
    # sampled primes = 1 mod 3 (four-valued level one) and composites
    rng = random.Random(11)
    moduli += rng.sample([p for p in primes_below(10**4)
                          if p % 3 == 1 and p > 1000], 12)
    moduli += [4097, 4104, 5005, 6000, 7776, 9000, 10010, 12000]
    for m in moduli:
        got = E.point_count_vector(m)
        assert got.dtype == np.int64
        assert np.array_equal(got, _kronecker_counts(m)), m


def test_point_counts_at_max_modulus():
    # minutes by Kronecker substitution; a fresh interpreter, so a slow
    # route fails on the timeout instead of stalling the suite
    code = ("from cubesums.expsums import MAX_MODULUS as m, point_count_vector\n"
            "v = point_count_vector(m)\n"
            "assert len(v) == m and int(v.sum()) == m**3 and v.min() >= 0\n"
            "print('ok')")
    src = str(Path(E.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("CUBESUMS_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_point_counts_divisor_identity_at_4100():
    # 4100 = 2^2 * 5^2 * 41 is past the old direct-convolution cutoff; the
    # divisor identity N_a(q)/q^2 = sum_{n | q} T_a(n)/n^3 must still hold
    q = 4100
    nv = E.point_count_vector(q)
    assert int(nv.sum()) == q**3
    acc = np.zeros(q, dtype=np.int64)
    for n in divisors(q):
        tn = E.t_full(n)
        acc += tn[np.arange(q) % n] * (q // n) ** 3
    assert np.array_equal(acc, nv.astype(np.int64) * q)


# ------------------------------------------------------------- T_a(n) values


def test_t_frozen_values():
    assert tv(0, 7) == 42
    assert tv(1, 7) == 287
    assert [tv(a, 4) for a in range(4)] == [16, 0, -16, 0]
    assert [tv(a, 8) for a in range(8)] == [256, 0, 0, 0, -256, 0, 0, 0]
    assert all(tv(a, 5) == 0 for a in range(5))
    assert all(tv(a, 3) == 0 for a in range(3))
    assert tv(0, 28) == 672  # = T_0(4) T_0(7)
    assert tv(0, 1) == 1


def test_t_matches_definitional_sum():
    # independent floating oracle: direct unit/value double sum
    for n in range(1, 31):
        exact = np.array([tv(a, n) for a in range(n)], dtype=float)
        assert np.max(np.abs(E.t_direct(n) - exact)) < 1e-5


def test_t_multiplicative():
    rng = random.Random(3)
    seen = 0
    while seen < 200:
        n1 = rng.randrange(1, 101)
        n2 = rng.randrange(1, 101)
        if math.gcd(n1, n2) != 1:
            continue
        seen += 1
        a = rng.randrange(0, n1 * n2)
        assert tv(a, n1 * n2) == tv(a, n1) * tv(a, n2)


def test_t_vanishing_above_valuation():
    # T_a(p^l) = 0 for l >= 2 unless p^{l-1} | 3a
    for p in [2, 3, 5, 7, 11]:
        l = 2
        while p**l <= 2000:
            t = E.t_prime_power(p, l)
            a = np.arange(p**l)
            mask = (3 * a) % p ** (l - 1) != 0
            assert not np.any(t[mask]), (p, l)
            l += 1


def test_t_is_real_and_integer_symmetric():
    # T_{-a}(n) = T_a(n): complex conjugation flips u -> -u
    for n in [7, 9, 13, 16, 63]:
        t = E.t_full(n)
        for a in range(n):
            assert t[a] == t[(-a) % n]


def test_mod_p_bounds_sample():
    # |T~| <= 6 + 2/sqrt(p) for p not dividing 3a; <= 6 sqrt(p) otherwise
    for p in primes_below(200):
        t = E.t_prime_power(p, 1)
        for a in range(p):
            val = int(t[a])
            if a % p != 0 and p != 3:
                excess = abs(val) - 6 * p**2
                assert excess <= 0 or excess * excess * p <= 4 * p**4, (p, a)
            else:
                assert val * val <= 36 * p**5, (p, a)
            if p >= 7:
                assert 100 * abs(val) < 99 * p**3, (p, a)


def test_divisor_identity():
    # N_a(q) / q^2 = sum_{n | q} T_a(n) / n^3, exactly, scaled by q^3
    for q in [1, 2, 6, 8, 12, 27, 28, 36, 60]:
        nv = E.point_count_vector(q)
        acc = np.zeros(q, dtype=np.int64)
        for n in divisors(q):
            acc += E.t_full(n)[np.arange(q) % n] * (q // n) ** 3
        assert np.array_equal(acc, nv.astype(np.int64) * q)


def test_weil_decomposition_bound():
    # |N_a(p) - p^2| <= 6p + 2 sqrt(p) for p not dividing 3a
    for p in primes_below(200):
        if p == 3:
            continue
        nv = E.point_count_vector(p)
        for a in range(1, p):
            diff = abs(int(nv[a]) - p * p)
            excess = diff - 6 * p
            assert excess <= 0 or excess * excess <= 4 * p, (p, a)


# ------------------------------------------------------------------- S+_0


def test_s_plus_frozen():
    assert E.s_plus_zero(1, 1) == 1
    assert E.s_plus_zero(2, 1) == 0
    assert E.s_plus_zero(4, 2) == 128
    assert E.s_plus_zero(4, 1) == 128
    assert E.s_plus_zero(2, 2) == 32
    assert E.s_plus_zero(3, 1) == 0          # T_a(3) = 0
    assert E.s_plus_zero(5, 2) == 0          # d does not divide n


def test_s_plus_against_bruteforce():
    cases = [(n, d) for n in range(1, 19) for d in divisors(n)] + [
        (27, 3), (27, 9), (32, 2), (16, 8), (25, 5), (49, 7), (18, 6), (24, 4),
    ]
    for n, d in cases:
        if n * d > 200:
            continue
        val, resid = E.s_plus_zero_bruteforce(n, d)
        assert resid < 1e-3
        assert val == E.s_plus_zero(n, d), (n, d)


def test_s_plus_multiplicative():
    rng = random.Random(9)
    for _ in range(60):
        p_block = rng.choice([(2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (8, 2), (8, 8)])
        q_block = rng.choice([(3, 1), (9, 3), (9, 1), (9, 9), (7, 1), (7, 7), (5, 5), (25, 5)])
        (n1, d1), (n2, d2) = p_block, q_block
        assert math.gcd(n1 * d1, n2 * d2) == 1
        assert E.s_plus_zero(n1 * n2, d1 * d2) == E.s_plus_zero(n1, d1) * E.s_plus_zero(n2, d2)


def test_s_plus_generic_dominates_twisted():
    # |S+_0(n; d)| <= |S+_0(n; 1)| whenever v_p(n) > v_p(d) at every p | n
    for p in [2, 3, 5, 7, 11, 13]:
        for f in range(1, 4):
            if p**f > 3000:
                continue
            for e in range(0, f):
                assert abs(E.s_plus_zero(p**f, p**e)) <= abs(E.s_plus_zero(p**f, 1)), (p, e, f)


def test_s_plus_full_level_is_point_count_square():
    for m in [2, 3, 4, 8, 9, 27, 25]:
        n0 = int(E.point_count_vector(m)[0])
        assert E.s_plus_zero(m, m) == m * n0 * n0


# --------------------------------------------------------------- densities


def test_sigma_p_a_frozen():
    assert E.sigma_p_a(2, 1).value == 1
    assert E.sigma_p_a(7, 1).value == Fraction(90, 49)
    for a in [1, 2, 3, 4, 6]:
        assert E.sigma_p_a(5, a).value == 1
    # mod 9 obstruction: zero density at p = 3 for a = +-4 mod 9
    assert E.sigma_p_a(3, 4).value == 0
    assert E.sigma_p_a(3, -4).value == 0
    assert E.sigma_p_a(3, 5).value == 0


def test_sigma_p_a_levels():
    assert E.sigma_p_a(7, 1).level == 1           # 7 does not divide 3
    assert E.sigma_p_a(3, 1).level == 2           # v_3(3) + 1
    assert E.sigma_p_a(2, 8).level == 4           # v_2(24) + 1
    assert E.sigma_p_a(3, 9).level == 4           # v_3(27) + 1


def _level_value(p, a, level):
    q = p**level
    return Fraction(int(E.point_count_vector(q)[a % q]), p ** (2 * level))


def test_sigma_p_a_certified_level_is_exact():
    # sigma_p_a reads level l = v_p(3a) + 1 alone; Hensel lifting says every
    # later level gives the same value, so recompute the next one here
    for p in primes_below(100):
        for a in itertools.chain(range(-400, 0), range(1, 401)):
            level = v_p(3 * a, p) + 1
            if p ** (level + 1) > 8192:
                continue
            here = _level_value(p, a, level)
            assert E.sigma_p_a(p, a).value == here
            assert _level_value(p, a, level + 1) == here, (p, a)
    # high valuations, every level up to modulus 2^16
    cases = [(2, s * 2**k * u) for k in range(12) for u in (1, 3, 5, 7)
             for s in (1, -1)]
    cases += [(3, s * 3**k * u) for k in range(6) for u in (1, 2, 4, 5, 7)
              for s in (1, -1)]
    for p, a in cases:
        rep = E.sigma_p_a(p, a)
        level = rep.level
        while p**level <= 1 << 16:
            assert _level_value(p, a, level) == rep.value, (p, a, level)
            level += 1


def test_sigma_p_a_rejects_zero():
    with pytest.raises(ValueError):
        E.sigma_p_a(5, 0)


def test_sigma_p_zero_level_sequence():
    # the a = 0 level values p^{-2l} N_0(p^l); no limit is claimed for them
    seq = [(l, Fraction(int(E.point_count_vector(2**l)[0]), 2 ** (2 * l)))
           for l in range(1, 7)]
    assert [l for l, _ in seq] == [1, 2, 3, 4, 5, 6]
    assert seq[0][1] == Fraction(4, 2**2)  # N_0(2)/4 = 1
    assert all(isinstance(v, Fraction) for _, v in seq)


def test_g_density_frozen():
    assert E.g_density(2) == Fraction(1, 2)
    assert E.g_density(7) == Fraction(55, 343)
    assert E.g_density(1) == 1


def test_g_density_multiplicative_and_matches_counts():
    for n in [6, 14, 35, 63, 98]:
        assert E.g_density(n) == Fraction(int(E.point_count_vector(n)[0]), n**3)


def test_hasse_consistency():
    # |p g(p) - 1| <= 3 / sqrt(p)
    for p in primes_below(500):
        n0 = int(E.point_count_vector(p)[0])
        assert (n0 - p * p) ** 2 * p <= 9 * p**4, p


def test_singular_series_euler_frozen():
    # the main term's constant S(d), bit for bit
    frozen = {1: "0x1.a52752c4c031dp+1", 2: "0x1.cde6c370bf080p+0",
              3: "0x1.408fde4a30cc0p+0", 4: "0x1.62e98bd9c8a66p+0"}
    for d, value in frozen.items():
        assert E.singular_series_euler(d).hex() == value, d
    with pytest.raises(ValueError, match="need d >= 1"):
        E.singular_series_euler(0)
    # the d the product cannot represent: no Euler factor sees a prime
    # above 100, and _sigma_p_of_d cuts a prime power past
    # LOCAL_MODULUS_CAP to 0; both once returned a number
    for d, msg in ((2.5, "d must be a positive integer, got d=2.5"),
                   (101, "d=101 has a prime factor above 100"),
                   (8192, r"d=8192 has the prime power 2\^13 > LOCAL_MODULUS"),
                   (10**6, r"d=1000000 has the prime power 5\^6 > LOCAL")):
        with pytest.raises(ValueError, match=msg):
            E.singular_series_euler(d)


# ------------------------------------------------- int64 route of T_a(p^l)


def _t_object_oracle(p, l):
    """T_a(p^l) in Python integers: the object-dtype formula that the int64
    route replaced, kept as its oracle."""
    m = p**l
    n_l = E.point_count_vector(m)
    if l == 1:
        return p * n_l.astype(object) - p**3
    n_prev = E.point_count_vector(p ** (l - 1))
    idx = np.arange(m) % (p ** (l - 1))
    return p**l * n_l.astype(object) - p ** (l + 2) * n_prev.astype(object)[idx]


def test_t_int64_route_matches_object_oracle_to_20000():
    try:
        for p in primes_below(20001):
            l = 1
            while p**l <= 20000:
                got = E.t_prime_power.__wrapped__(p, l)
                assert got.dtype == np.int64
                assert np.array_equal(got, _t_object_oracle(p, l)), (p, l)
                l += 1
    finally:
        E.point_count_vector.cache_clear()  # some 2000 vectors


@pytest.mark.parametrize("p,l", [(2, 20), (3, 13), (11, 6), (5, 9), (37, 4)])
def test_t_large_prime_powers_match_object_oracle(p, l):
    got = E.t_prime_power.__wrapped__(p, l)
    assert got.dtype == np.int64
    assert np.array_equal(got, _t_object_oracle(p, l))


def test_t_largest_primes_match_object_oracle():
    # 2 p^3 leaves int64 above about 1.66e6, but T_a(p) = p (N_a(p) - p^2)
    # does not, so these stay on the int64 route
    for r in (1, 2):
        p = next(q for q in range(E.MAX_MODULUS, 1, -1)
                 if q % 3 == r and is_prime(q))
        assert 2 * p**3 > E.INT64_MAX
        got = E.t_prime_power.__wrapped__(p, 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, _t_object_oracle(p, 1)), p


def test_t_leaves_int64_through_python_ints(monkeypatch):
    # no T_a(p^l) with p^l <= MAX_MODULUS leaves int64, so lower the limit to
    # reach the object route: values that do not fit come back as Python ints
    monkeypatch.setattr(E, "INT64_MAX", 10**6)
    for p, l in ((7, 3), (19, 2), (2, 9), (5, 5)):
        got = E.t_prime_power.__wrapped__(p, l)
        assert got.dtype == object and isinstance(got[0], int)
        assert np.array_equal(got, _t_object_oracle(p, l)), (p, l)


def test_t_vectors_never_touch_the_store(tmp_path):
    E.configure_cache(str(tmp_path))
    assert list(E.t_full(343)[:3]) == [tv(a, 343) for a in range(3)]
    assert E.t_prime_power(7, 3) is E.t_prime_power(7, 3)
    assert list(tmp_path.iterdir()) == []


def test_cached_vectors_are_read_only():
    t = E.t_full(12)
    with pytest.raises(ValueError):
        t[0] = 99


def test_vectors_at_one_are_read_only_int64_ones():
    for vec in (E.t_full(1), E.point_count_vector(1)):
        assert vec.dtype == np.int64 and vec.tolist() == [1]
        assert not vec.flags.writeable


def test_t_full_of_a_prime_power_escalates_by_its_bound():
    # |T_a(2^16)| <= 2^64 > 2^63 - 1 decides the dtype, although the
    # prime-power vector itself fits in int64
    n = 2**16
    assert n > 55108
    t = E.t_full(n)
    assert t.dtype == object and not t.flags.writeable
    assert np.array_equal(t, E.t_prime_power(2, 16))


def test_t_full_at_max_modulus_is_the_crt_product():
    n = E.MAX_MODULUS  # 7^2 * 127 * 337
    try:
        t = E.t_full(n)
        assert t.dtype == object and isinstance(t[0], int)
        a = np.arange(n)
        want = np.ones(n, dtype=object)
        for p, e in ((7, 2), (127, 1), (337, 1)):
            want = want * E.t_prime_power(p, e).astype(object)[a % p**e]
        assert np.array_equal(t, want)
    finally:
        E.t_full.cache_clear()  # an object vector of 2^21 Python ints
