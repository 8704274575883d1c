import hashlib
import math
import random
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from cubesums import series as S
from cubesums.arith import admissible, factor, mobius
from cubesums.expsums import t_full


def _square_full(n):
    # every prime divides n at least twice; 1 counts as square-full
    return all(e >= 2 for _, e in factor(n).factors)


def test_s_value_frozen():
    assert S.s_value(0, 4) == Fraction(5, 4)
    assert S.s_value(1, 4) == Fraction(1)
    # K = 1 keeps only n = 1
    for a in (-3, 0, 17, 1729):
        assert S.s_value(a, 1) == 1


def test_window_modes_agree():
    w = S.series_window(12, -30, 30, mode="double")
    we = S.series_window(12, -30, 30, mode="exact")
    for a in range(-30, 31):
        assert we.s_at(a) == S.s_value(a, 12)
        assert we.m_at(a) == S.m_value(a, 12)
        assert abs(w.s_at(a) - float(we.s_at(a))) < 1e-12
        assert abs(w.m_at(a) - float(we.m_at(a))) < 1e-12


def test_window_exact_vs_double_random():
    rng = random.Random(17)
    for _ in range(100):
        K = rng.randrange(1, 65)
        a = rng.randrange(-5000, 5001)
        exact = S.s_value(a, K)
        w = S.series_window(K, a, a, mode="double")
        ref = float(exact)
        if ref == 0:
            assert abs(w.s[0]) < 1e-10
        else:
            assert abs(w.s[0] - ref) <= 1e-10 * abs(ref)


def test_window_bounds_checked():
    w = S.series_window(4, 0, 10)
    with pytest.raises(IndexError):
        w.s_at(11)
    with pytest.raises(ValueError):
        S.series_window(0, 0, 10)
    with pytest.raises(ValueError):
        S.series_window(4, 0, 10, mode="float32")
    with pytest.raises(ValueError, match="exceeds the limit 134217728"):
        S.series_window(1, 0, 1 << 27)  # one value past lattice's table


def test_double_window_frozen_bits():
    # a window from a negative a that no n <= 32 divides; the digests of the
    # int64 views pin every bit of s and M
    a_lo = -1000003
    w = S.series_window(32, a_lo, a_lo + 100000, "double")
    assert hashlib.sha256(w.s.view("<i8").tobytes()).hexdigest() == (
        "9ebd8fd9382a74572319d20baa3d54d027affd516b2443dfe3edc3302036a0dd")
    assert hashlib.sha256(w.m.view("<i8").tobytes()).hexdigest() == (
        "d665e3430a46b3d8b6329e6a24ed02d166c846ec97d0d740bc808bb675456162")


def _termwise_window(K, a_lo, width):
    """The reference: per a, add t[a mod n] / n^3 for n = 1..K in order."""
    s, m = [0.0] * width, [0.0] * width
    for n in range(1, K + 1):
        t = [float(x) / n**3 for x in t_full(n).tolist()]
        mu = mobius(n) if math.gcd(n, 30) == 1 else 0
        for i in range(width):
            v = t[(a_lo + i) % n]
            s[i] += v
            if mu:
                m[i] += mu * v
    return array("d", s).tobytes(), array("d", m).tobytes()


@pytest.mark.parametrize("chunk", [7, 64, S._CHUNK])
def test_double_window_matches_termwise_loop(chunk, monkeypatch):
    # the same float additions in the same order, whatever the chunk, and
    # windows shorter than a period or ending inside a chunk
    monkeypatch.setattr(S, "_CHUNK", chunk)
    for K, a_lo, width in ((1, 5, 1), (13, -7, 3), (30, -1000003, 500),
                           (40, 999983, 257)):
        w = S.series_window(K, a_lo, a_lo + width - 1, "double")
        assert (w.s.tobytes(), w.m.tobytes()) == _termwise_window(K, a_lo, width)


@pytest.mark.parametrize("chunk", [7, 64, S._CHUNK])
def test_exact_window_matches_oracles(chunk, monkeypatch):
    # the exact mode runs on the same tiled pass as the double mode
    monkeypatch.setattr(S, "_CHUNK", chunk)
    for K, a_lo, width in ((1, 5, 1), (13, -7, 3), (30, -1000003, 40),
                           (40, 999983, 23)):
        w = S.series_window(K, a_lo, a_lo + width - 1, "exact")
        for i, a in enumerate(range(a_lo, a_lo + width)):
            assert (w.s[i], w.m[i]) == (S.s_value(a, K), S.m_value(a, K)), a


def test_c_coeff_multiplicative_matches_definitional():
    rng = random.Random(23)
    cases = [(a, n) for a in (0, 1, 2, 5, -7) for n in (1, 4, 8, 9, 12, 36, 49, 98)]
    cases += [(rng.randrange(-50, 51), rng.randrange(1, 100)) for _ in range(40)]
    for a, n in cases:
        assert S.c_coeff(a, n) == S.c_coeff_definitional(a, n), (a, n)


def test_c_coeff_vanishes_at_large_primes():
    for a in (1, 2, 3, 10):
        for p in (7, 11, 13, 37):
            assert S.c_coeff(a, p) == 0
    # but not at 2, 3, 5 powers in general
    assert S.c_coeff(0, 4) == Fraction(16, 64)


def test_gamma_factor_frozen():
    g = S.gamma_factor(1, 7)
    assert g.sigma == Fraction(90, 49)
    assert g.mollifier == Fraction(56, 343)
    assert g.value == Fraction(90 * 56, 49 * 343)
    # p < 7 never mollifies
    assert S.gamma_factor(1, 2).mollifier == 1
    assert S.gamma_factor(1, 3).value == S.gamma_factor(1, 3).sigma


def test_gamma_positive_on_admissible():
    for a in [x for x in range(-60, 61) if x and admissible(x)]:
        for p in (2, 3, 5, 7, 11):
            assert S.gamma_factor(a, p).value > 0, (a, p)


def test_gamma_zero_on_obstructed():
    for a in (4, -4, 13, 22):
        assert S.gamma_factor(a, 3).value == 0


def test_gamma_product_stabilizes():
    gp = S.gamma_product(1, 400)
    assert gp.stabilization_gap < 0.05
    assert gp.value > 0
    with pytest.raises(ValueError):
        S.gamma_product(0)


def test_identity_s_times_m_exact():
    # exact rational identity relating the product s_a(K) M_a(K) to the
    # c-sum plus the tail over n1 n2 > K
    for a in range(-50, 51):
        if a == 0:
            continue
        for K in (4, 8, 16, 32):
            lhs, rhs, ok = S.identity_check_s_times_m(a, K)
            assert ok, (a, K, lhs, rhs)


def test_euler_truncation_endpoint():
    tc = S.euler_truncation_check(2, Ks=(8, 64), p_max=600)
    assert tc.endpoint_improved
    assert tc.diffs[64] < 0.1


def test_exceptional_scan_frozen():
    sc = S.exceptional_scan(10, 1, 2.0)
    assert sc.count == 17
    assert sc.admissible_total == 17
    sc = S.exceptional_scan(10, 1, 0.5)
    assert sc.count == 0


def test_exceptional_scan_frozen_at_20000():
    sc = S.exceptional_scan(20000, 16, 0.3)
    assert (sc.count, sc.admissible_total) == (2920, 31113)
    assert sc.counts_by_K == {4: 0, 8: 0, 16: 2920}
    assert sc.hist_counts.tolist() == [
        1316, 1756, 182, 2300, 3176, 1134, 2310, 2904, 3354, 2950, 1292, 2022,
        2370, 1496, 733, 560, 778, 330, 0, 100, 50]
    assert sc.hist_edges.tolist() == [0.25 * k for k in range(-3, 19)]


def test_exceptional_scan_reads_each_t_vector_once(monkeypatch):
    # K/4 and K/2 are checkpoints of the one pass, not windows of their own
    calls = Counter()

    def counted(n):
        calls[n] += 1
        return t_full(n)

    monkeypatch.setattr(S, "t_full", counted)
    sc = S.exceptional_scan(500, 16, 0.2)
    assert calls == Counter(range(1, 17))
    for k in (4, 8):
        w = S.series_window(k, -500, 500)
        adm = [a % 9 not in (4, 5) for a in range(-500, 501)]
        assert sc.counts_by_K[k] == sum(
            1 for s, ok in zip(w.s.tolist(), adm) if ok and abs(s) <= 0.2)


def test_exceptional_scan_reports_K_trend():
    sc = S.exceptional_scan(2000, 16, 0.3)
    # trend is a report, not a guarantee at small A
    assert isinstance(sc.non_increasing, bool)
    assert set(sc.counts_by_K) == {4, 8, 16}
    assert sc.hist_counts.sum() == sc.admissible_total


def test_moment_report_frozen_and_vanishing():
    rep = S.moment_report([2, 3, 7], l_caps={2: 3, 3: 2, 7: 2})
    rows = {r.moduli: r for r in rep.rows}
    # E_b[(T_b(4)/16)^2] = 1/2
    assert rows[(4, 4)].abs_moment == 0.5
    # single-sum orthogonality: E_b T_b(p) = 0
    for p in (2, 3, 7):
        assert rows[(p, 1)].signed_mean == 0
        assert rows[(1, p)].signed_mean == 0
    for mods, row in rows.items():
        if not _square_full(math.prod(mods)):
            assert row.signed_mean == 0, mods
    # m = n = 7: exact positive second moment
    assert rows[(7, 7)].abs_moment > 0
    assert rows[(7, 7)].signed_mean > 0
    assert rep.fitted_constant > 0
    assert math.prod(rep.max_ratio_moduli) <= 10**5


def test_moment_report_r2_blocks():
    rep = S.moment_report([2, 3], l_caps=1, r=2, product_cap=2000)
    quads = [r for r in rep.rows if len(r.moduli) == 4]
    assert quads, "r=2 grid should contain coprime two-prime blocks"
    for row in quads:
        assert math.gcd(math.prod(row.moduli[:2]), math.prod(row.moduli[2:])) == 1
        if not _square_full(math.prod(row.moduli)):
            assert row.signed_mean == 0, row.moduli
