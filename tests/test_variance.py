"""Variance decomposition, exact moment regrouping, sieve filter, pipeline."""

import dataclasses
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubesums import CheckFailed, expsums, lattice, series
from cubesums import variance as variance_module
from cubesums.cli import main
from cubesums.densities import _density_table
from cubesums.expsums import point_count_vector, singular_series_euler, t_full
from cubesums.lattice import count_weighted, pair_count, special_count
from cubesums.variance import (
    HypothesisParams,
    moment_check_levels,
    nonarch_moment_check,
    pipeline_demo,
    sieved_variance,
    variance,
)
from cubesums.weights import nu_star


@pytest.fixture(scope="module")
def nu2():
    return nu_star(2.0)


@pytest.fixture(scope="module")
def tab20(nu2):
    return count_weighted(20, nu2, exact=False)


def test_hypothesis_params_ranges():
    HypothesisParams(delta=0.1, hbar=0.045)
    with pytest.raises(ValueError):
        HypothesisParams(delta=-1.0, hbar=0.01)
    with pytest.raises(ValueError):
        HypothesisParams(delta=0.1, hbar=0.05)  # > 9*delta/20


def test_moment_check_K1_d1():
    r = nonarch_moment_check(1, 1)
    assert r.pure_lhs == r.mixed_lhs == r.head == Fraction(1)
    assert r.tail_pure == r.tail_mixed == 0


def test_moment_check_frozen_values():
    # head(4;1) = 1 + S+_0(4;1)/4^6 = 1 + 128/4096 = 33/32; the n=2,3
    # groups vanish since T_b(2) = T_b(3) = 0 for every b
    r = nonarch_moment_check(4, 1)
    assert r.pure_lhs == Fraction(33, 32)
    assert r.mixed_lhs == Fraction(33, 32)
    assert r.tail_pure == 0 and r.tail_mixed == 0
    # head(4;2) = S+_0(2;2)/2^6 + S+_0(4;2)/4^6 = 2*16/64 + 128/4096 = 17/32
    r2 = nonarch_moment_check(4, 2)
    assert r2.pure_lhs == r2.mixed_lhs == r2.head == Fraction(17, 32)
    assert r2.n_pairs_vanished > 0


def test_moment_check_grid_runs_exact():
    # internal asserts: collapse, vanishing, complete groups, tail bound
    for d in range(1, 9):
        for K in (2, 3, 6, 8, 16):
            r = nonarch_moment_check(K, d)
            assert abs(r.tail_pure) <= r.tail_bound
            assert abs(r.tail_mixed) <= r.tail_bound


def _pair_loop_oracle(K, d, t_vector):
    """The per-pair loop nonarch_moment_check replaced: pure and mixed
    groups as Fractions, and the number of unbalanced pairs."""
    t_vecs = {n: t_vector(n) for n in range(1, K + 1)}
    pure, n_vanished = {}, 0
    for n1 in range(1, K + 1):
        m1 = math.lcm(n1, d)
        for n2 in range(1, K + 1):
            t1, t2, m2 = t_vecs[n1], t_vecs[n2], math.lcm(n2, d)
            b = d * np.arange(n1 * n2, dtype=np.int64)
            S = int(np.sum(t1[b % n1] * t2[b % n2]))
            m12 = math.lcm(n1, n2, d)
            bb = np.arange(0, m12, d, dtype=np.int64)
            S_m = int(np.sum(t1[bb % n1] * t2[bb % n2]))
            if Fraction(S, n1 * n2 * d) != Fraction(S_m, m12):
                raise CheckFailed(f"modulus collapse failed at {(n1, n2, d)}")
            if m1 != m2:
                if S != 0:
                    raise CheckFailed(
                        f"unbalanced pair ({n1}, {n2}) did not vanish")
                n_vanished += 1
                continue
            term = Fraction(S, (n1 * n2) ** 3 * n1 * n2 * d)
            pure[m1] = pure.get(m1, Fraction(0)) + term
    mixed = {}
    for n in range(1, K + 1):
        nd = n * d
        counts = point_count_vector(nd)
        bs = np.arange(0, nd, d, dtype=np.int64)
        S = int(np.sum(counts[bs].astype(object) * t_vecs[n][bs % n]))
        m = math.lcm(n, d)
        mixed[m] = mixed.get(m, Fraction(0)) + Fraction(S, nd**3 * n**3)
    return pure, mixed, n_vanished


def test_moment_check_matches_pair_loop():
    for K, d in [(K, d) for d in range(1, 9) for K in (1, 6, 17)] + [
            (40, 2), (48, 1), (48, 5), (48, 8)]:
        pure, mixed, n_vanished = _pair_loop_oracle(K, d, t_full)
        r = nonarch_moment_check(K, d)
        assert r.pure_lhs == sum(pure.values()), (K, d)
        assert r.mixed_lhs == sum(mixed.values()), (K, d)
        assert r.n_pairs_vanished == n_vanished, (K, d)


@pytest.mark.parametrize("K, d, n, b", [
    # pair (1, n) no longer vanishes
    (8, 1, 4, 1), (17, 3, 9, 3), (48, 8, 48, 8),
    # n | d: every pair with n balances or still vanishes, and the group
    # m = d no longer matches S+_0(d; d) / d^6
    (8, 8, 4, 0), (12, 6, 3, 0)])
def test_moment_check_catches_a_perturbed_t_vector(monkeypatch, K, d, n, b):
    # one entry of one T-vector, read at b = 0 mod d, is off by one
    good = variance_module.t_full

    def perturbed(m):
        t = good(m)
        if m == n:
            t = t.copy()
            t[b] += 1
        return t

    monkeypatch.setattr(variance_module, "t_full", perturbed)
    with pytest.raises(CheckFailed) as new:
        nonarch_moment_check(K, d)
    try:  # the loop, where it fails, names the same first failing pair
        _pair_loop_oracle(K, d, perturbed)
    except CheckFailed as old:
        assert str(old) == str(new.value)
    else:
        assert re.match(r"(pure|mixed) group m=\d+ is ", str(new.value))


def test_moment_levels_match_single_calls():
    for d in range(1, 9):
        assert list(moment_check_levels(range(1, 13), d)) == [
            nonarch_moment_check(K, d) for K in range(1, 13)], d
    for d in (1, 5, 8):
        reps = list(moment_check_levels(range(1, 49), d))
        assert reps[-1] == nonarch_moment_check(48, d), d
        # levels may skip; the blocks between them still count
        assert list(moment_check_levels((5, 17, 48), d)) == [
            reps[4], reps[16], reps[47]], d
    for levels in ((3, 2), (4, 4), ()):
        with pytest.raises(ValueError):
            next(moment_check_levels(levels, 1))


def _perturb_t(monkeypatch, n, changes):
    good = variance_module.t_full

    def perturbed(m):
        t = good(m)
        if m == n:
            t = t.copy()
            for b, delta in changes:
                t[b] += delta
        return t

    monkeypatch.setattr(variance_module, "t_full", perturbed)


@pytest.mark.parametrize("n, changes, first", [
    (4, ((1, 1),), "unbalanced pair (1, 4)"),
    # T_b(8) still sums to 0 over b; block 8 finds the pair as (8, 4)
    (8, ((0, 1), (1, -1)), "unbalanced pair (4, 8)"),
    (3, ((0, 1), (1, -1)), "pure group m=3 "),
])
def test_verify_moments_fails_like_single_calls(monkeypatch, capsys, n,
                                                changes, first):
    _perturb_t(monkeypatch, n, changes)
    expected = None
    for d in range(1, 5):  # the order of verify --suite moments
        for K in range(1, 13):
            try:
                nonarch_moment_check(K, d)
            except CheckFailed as exc:
                expected = (d, K, str(exc))
                break
        if expected:
            break
    d, K, message = expected
    assert message.startswith(first)
    passed = []
    with pytest.raises(CheckFailed) as exc:
        for rep in moment_check_levels(range(1, 13), d):
            passed.append(rep.K)
    assert passed == list(range(1, K)) and str(exc.value) == message
    rc = main(["verify", "--suite", "moments", "--max-modulus", "12"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err == f"cubesums: FAIL {message}\n"


def test_verify_moments_forms_each_block_once(monkeypatch, capsys):
    formed = Counter()
    good = variance_module._pair_block

    def counted(reps, n1, d):
        formed[n1, d] += 1
        return good(reps, n1, d)

    monkeypatch.setattr(variance_module, "_pair_block", counted)
    assert main(["verify", "--suite", "moments", "--max-modulus", "12"]) == 0
    assert "48 checks passed" in capsys.readouterr().out
    assert formed == Counter((n1, d) for d in range(1, 5) for n1 in range(1, 13))


def test_moment_check_guards():
    for K, d, msg in ((49, 1, "need 1 <= K <= 48, got K=49"),
                      (4, 9, "need 1 <= d <= 8, got d=9"),
                      (0, 1, "need 1 <= K <= 48, got K=0"),
                      (4, 0, "need 1 <= d <= 8, got d=0"),
                      (-1, -1, "need 1 <= K <= 48, got K=-1")):
        with pytest.raises(ValueError, match=msg):
            nonarch_moment_check(K, d)


def test_variance_decomposition(nu2, tab20):
    rep = variance(20, 4, 1, nu2)
    assert rep.decomposition_rel_err < 1e-6
    assert rep.sigma1 == pair_count(20, 1, nu2, table=tab20)
    assert rep.var_direct >= 0.0
    rep2 = variance(20, 4, 2, nu2)
    assert rep2.var_direct <= rep.var_direct
    assert rep2.decomposition_rel_err < 1e-6
    assert variance(20, 4, np.int64(2), nu2).var_direct == rep2.var_direct


def test_variance_K1_matches_plain_residual(nu2, tab20):
    # s_a(1) = 1, so the variance is the plain [N - sigma]^2 sum
    rep = variance(20, 1, 1, nu2)
    from cubesums.densities import density_table
    dtab = density_table(nu2)
    a = np.arange(-tab20.offset, tab20.offset + 1)
    direct = np.dot(
        tab20.bins - dtab(a / 20.0**3), tab20.bins - dtab(a / 20.0**3))
    assert rep.var_direct == pytest.approx(float(direct), rel=1e-12)


def test_variance_builds_one_density_table():
    # variance reads the table directly and through pure_l2_moment
    _density_table.cache_clear()
    variance(20, 4, 2, nu_star(2.0))
    info = _density_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 1


def test_variance_warns_outside_range(nu2):
    with pytest.warns(UserWarning):
        variance(2, 4, 1, nu2)


def test_one_lattice_walk_per_X(nu2, monkeypatch):
    # the special term reduces the count table: no second walk
    walks = []
    walk = lattice._iter_orbits

    def counted(X, weight, *args, **kwargs):
        walks.append(X)
        return walk(X, weight, *args, **kwargs)

    monkeypatch.setattr(lattice, "_iter_orbits", counted)
    variance(20, 4, 1, nu2)
    assert walks == [20]
    variance(20, 4, 2, nu2)
    assert walks == [20, 20]


def test_level_past_series_truncation_rejected_first(nu2, monkeypatch):
    # the main term's S(d) is an Euler product over p <= 100 with factors
    # cut at LOCAL_MODULUS_CAP; a d it cannot represent is refused before
    # the lattice is walked
    def no_walk(*args, **kwargs):
        raise AssertionError("walked the lattice")

    monkeypatch.setattr(lattice, "_iter_orbits", no_walk)
    for call, msg in (
            (lambda: variance(30, 1, 101, nu2),
             "d=101 has a prime factor above 100"),
            (lambda: variance(30, 4, 101, nu2),
             "d=101 has a prime factor above 100"),
            (lambda: variance(30, 4, 0, nu2),
             "d must be a positive integer, got d=0"),
            # d slices the window a in dZ, so it must be an integer
            (lambda: variance(8, 2, 1.5, nu2),
             "d must be a positive integer")):
        with pytest.raises(ValueError, match=msg):
            call()
    # S(d) is the one bound on d: 49 = 7^2 and 96 = 2^5 3 lie inside the
    # product, so the walk starts (d <= 48 once refused them), after the
    # warning that K*d exceeds X^(9/10)
    for d in (49, 96):
        with pytest.warns(UserWarning, match="K\\*d"), \
                pytest.raises(AssertionError, match="walked the lattice"):
            variance(30, 1, d, nu2)


def test_non_integer_X_or_K_rejected_before_the_walk(nu2, monkeypatch):
    # X = 8.5 once printed a report at a scale no CLI run can ask for, and
    # K = 2.5 walked the lattice before failing in the series window
    class Walked(Exception):
        pass

    def no_walk(*args, **kwargs):
        raise Walked

    monkeypatch.setattr(lattice, "_iter_orbits", no_walk)
    hp = HypothesisParams(delta=0.1, hbar=0.045)
    for call, msg in (
            (lambda: variance(8.5, 2, 1, nu2), "X must be a positive integer"),
            (lambda: sieved_variance(8.5, 2, hp, nu2),
             "X must be a positive integer"),
            (lambda: count_weighted(8.5, nu2), "X must be a positive integer"),
            (lambda: variance(8, 2.5, 1, nu2), "K must be a positive integer"),
            (lambda: sieved_variance(8, 2.5, hp, nu2),
             "K must be a positive integer")):
        with pytest.raises(ValueError, match=msg):
            call()
    # a numpy integer is an integer: these reach the walk
    for call in (lambda: variance(np.int64(8), np.int64(2), 1, nu2),
                 lambda: sieved_variance(np.int64(8), np.int64(2), hp, nu2),
                 lambda: count_weighted(np.int64(8), nu2)):
        with pytest.raises(Walked):
            call()


def test_table_at_another_X_is_rejected(nu2, tab20):
    calls = (lambda: pair_count(30, 1, nu2, table=tab20),
             lambda: special_count(30, 1, nu2, table=tab20))
    for call in calls:
        with pytest.raises(ValueError, match="counted at X = 20, not X = 30"):
            call()


def test_table_of_another_weight_is_rejected(nu2):
    # reduced for R = 4, an R = 2 table would give the R = 2 diagonal
    # 1274.61 in place of 3045.43
    tab = count_weighted(10, nu2, exact=False)
    nu4 = nu_star(4.0)
    for call in (lambda: special_count(10, 1, nu4, table=tab),
                 lambda: pair_count(10, 1, nu4, table=tab)):
        with pytest.raises(ValueError, match="counted with another weight"):
            call()


def test_singular_series_positive():
    # the level-d singular series is positive for every d <= 50
    low = min(singular_series_euler(d) for d in range(1, 51))
    assert low > 0.0


def test_variance_reads_neither_s_plus_nor_the_series_window(nu2,
                                                            monkeypatch):
    # S(d) is the Euler product alone and the window builds no M_a(K): the
    # golden report comes back with both routes stubbed to raise
    def unreachable(*args, **kwargs):
        raise AssertionError(f"reached with {args}")

    for module in (expsums, variance_module):
        monkeypatch.setattr(module, "s_plus_zero", unreachable)
    monkeypatch.setattr(series, "series_window", unreachable)
    golden = Path(__file__).parent / "golden" / "variance-json.txt"
    command, text = golden.read_text().split("\n", 1)
    assert command == "$ cubesums variance --X 20 --K 4 --d 2"
    expected = json.loads(text)
    got = dataclasses.asdict(variance(20, 4, 2, nu2))
    for fields in (expected, got):
        del fields["wall_time"]
    assert got == expected


def test_sieved_variance_filter(nu2):
    # X^hbar = 6: primes {2,3,5}, H = 1 + 1 + 1/2 + 1/4 exactly
    hp = HypothesisParams(delta=1.4,
                          hbar=math.log(6.0) / math.log(20.0) * 0.9999)
    sv = sieved_variance(20, 4, hp, nu2)
    assert sv.P == 30
    assert sv.filtered <= sv.unfiltered
    assert sv.H == Fraction(11, 4)
    # X^hbar = 10 adds d = 6, 7: + 1/2 + 55/288
    hp10 = HypothesisParams(delta=1.8,
                            hbar=math.log(10.0) / math.log(20.0) * 0.9999)
    sv10 = sieved_variance(20, 4, hp10, nu2)
    assert sv10.H == Fraction(991, 288)
    assert sv10.filtered <= sv.filtered  # more primes removed


def test_sieved_variance_trivial_filter(nu2):
    hp = HypothesisParams(delta=0.1, hbar=0.02)  # X^hbar < 2
    sv = sieved_variance(20, 4, hp, nu2)
    assert sv.P == 1
    assert sv.filtered == sv.unfiltered


def test_pipeline_demo_small(nu2):
    rep = pipeline_demo(R_list=(2.0, 4.0), X_list=(20,), j=2)
    assert len(rep.rows) == 2
    assert all(r.chebyshev_ok for r in rep.rows)
    assert rep.rows[0].K == 2  # floor(8000^(1/12))
    assert rep.rows[0].n_exceptional == 0  # s == 1 < eta at R=2
    assert isinstance(rep.fractions_non_increasing_in_R(20), bool)
    with pytest.raises(ValueError):
        pipeline_demo(R_list=(2.0,), X_list=(200,), j=2)


def test_pipeline_demo_never_calls_variance(nu2, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("pipeline_demo called variance")

    monkeypatch.setattr(variance_module, "variance", unreachable)
    (row,) = pipeline_demo(R_list=(2.0,), X_list=(20,), j=2).rows
    monkeypatch.undo()
    # the window it already holds gives variance's var_direct, bit for bit
    rep = variance(20, row.K, 1, nu2)
    assert row.var == rep.var_direct
