"""K-approximate variance of weighted counts, and its exact companions.

Var(X, K; d) = sum over a in dZ of [N_{a,nu}(X) - s_a(K) sigma_inf(a, X)]^2.
Expanding the square gives Sigma1 - 2 Sigma2 + Sigma3, where Sigma1 is the
pair count, Sigma2 the cross term over represented a, and Sigma3 the full
window scan; all three come from the same CountTable, partial sums s_a(K)
and DensityTable, so the identity is assertable numerically.

nonarch_moment_check verifies, in exact rational arithmetic, that the
truncated pure and mixed moments of the normalized complete sums T_b regroup
by m = lcm(n, d) into sum of S+_0(m; d) / m^6: complete groups (m <= K)
match term by term, cross terms with mismatched lcm vanish, and the
leftover is exactly the enumerated partial groups with K < m <= K d.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import CheckFailed
from .arith import (_check_positive_int, admissible, factor, mobius,
                    primes_below)
from .densities import density_table, pure_l2_moment, sigma_inf, weight_l2_norm_sq
from .expsums import (
    MAX_MODULUS,
    g_density,
    point_count_vector,
    s_plus_zero,
    singular_series_euler,
    t_full,
)
from .lattice import count_weighted, pair_count, special_count
from .series import _partial_sums
from .weights import Weight, nu_star

__all__ = [
    "HypothesisParams",
    "MomentCheckReport",
    "PipelineReport",
    "PipelineRow",
    "SievedReport",
    "VarianceReport",
    "moment_check_levels",
    "nonarch_moment_check",
    "pipeline_demo",
    "sieved_variance",
    "variance",
]


@dataclass(frozen=True)
class HypothesisParams:
    """Experiment configuration; the hypothesis itself is never asserted."""

    delta: float = 0.1
    hbar: float = 0.045

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not 0 < self.hbar <= 9 * self.delta / 20:
            raise ValueError("hbar must lie in (0, 9*delta/20]")


@dataclass(frozen=True)
class VarianceReport:
    X: int
    K: int
    d: int
    R: float
    var_direct: float
    sigma1: float
    sigma2: float
    sigma3: float
    main_term: float
    special_term: float
    residual: float  # sigma1 - main_term - special_term
    decomposition_rel_err: float
    wall_time: float


# S(d) is the Euler product over p <= 100 with local factors cut at
# LOCAL_MODULUS_CAP, so it accounts for d only if every p^e dividing d lies
# within both; d <= 48 does
_D_MAX = 48


def _window_vectors(X: int, K: int, d: int, weight: Weight):
    """The count table at X and its aligned (a, N, s, sigma) vectors over a
    in dZ, |a| <= table.offset: N_a, s_a(K) and sigma_inf(a, X)."""
    table = count_weighted(X, weight, exact=False)
    dtable = density_table(weight)
    a_cap = table.offset
    i0 = a_cap % d  # a = -a_cap + i is divisible by d iff i = a_cap mod d
    for _n, s, _m in _partial_sums(K, -a_cap, 2 * a_cap + 1, mollified=False):
        pass  # s holds s_a(K) after the last term
    N = table.bins[i0::d]
    a_vec = -a_cap + i0 + d * np.arange(len(N), dtype=np.int64)
    sig = dtable(a_vec / float(X) ** 3)
    return table, a_vec, N, s[i0::d], sig


def variance(X: int, K: int, d: int, weight: Weight) -> VarianceReport:
    """K-approximate variance over the progression dZ, with decomposition."""
    _check_positive_int("X", X)
    if K < 1 or d < 1:
        raise ValueError("need K >= 1 and d >= 1")
    _check_positive_int("K", K)
    _check_positive_int("d", d)
    if K > MAX_MODULUS:  # the series window's bound, checked before the walk
        raise ValueError(f"need K <= {MAX_MODULUS}, got K={K}")
    if d > _D_MAX:
        raise ValueError(f"need 1 <= d <= {_D_MAX}, got d={d}")
    if K * d > X ** 0.9:
        warnings.warn(f"K*d = {K * d} exceeds X^(9/10) = {X ** 0.9:.1f}; "
                      "the variance asymptotic is not expected to apply")
    t0 = time.perf_counter()
    table, _a, N, s, sig = _window_vectors(X, K, d, weight)
    ssig = s * sig
    diff = N - ssig
    var_direct = float(np.dot(diff, diff))
    sigma1 = pair_count(X, d, weight, table=table)
    mask = N > 0.0
    sigma2 = float(np.dot(N[mask], ssig[mask]))
    sigma3 = float(np.dot(ssig, ssig))
    decomposed = sigma1 - 2.0 * sigma2 + sigma3
    rel = abs(var_direct - decomposed) / max(var_direct, 1e-300)
    main_term = singular_series_euler(d) * pure_l2_moment(weight) * float(X) ** 3
    special = special_count(X, d, weight, table=table).diag
    return VarianceReport(
        X=X, K=K, d=d, R=weight.R, var_direct=var_direct, sigma1=sigma1,
        sigma2=sigma2, sigma3=sigma3, main_term=main_term,
        special_term=special, residual=sigma1 - main_term - special,
        decomposition_rel_err=rel, wall_time=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# exact truncated moment identities


@dataclass(frozen=True)
class MomentCheckReport:
    K: int
    d: int
    pure_lhs: Fraction
    mixed_lhs: Fraction
    head: Fraction  # sum of S+_0(m; d)/m^6 over m <= K, d | m
    tail_pure: Fraction  # pure_lhs - head, = enumerated partial groups
    tail_mixed: Fraction
    tail_bound: Fraction  # sum of |S+_0(m; d)|/m^6 over K < m <= K*d
    n_pairs_vanished: int  # (n1, n2) pairs with lcm mismatch (checked = 0)
    groups_checked: int  # complete m-groups matched against S+_0 exactly


def _pair_block(reps: list[np.ndarray], n1: int, d: int):
    """(S, S_m, m12) over the pairs (n1, n2), n2 = 1..n1, from one block.

    reps[n - 1] repeats u_n[j] = T_{dj mod n}(n), j < n, at least n1 times.
    For b = dj the pair sum over b in dZ/n1 n2 dZ is the prefix of length
    n1 n2 of P[j] = u_n1[j mod n1] u_n2[j mod n2], and the collapsed sum
    over dZ/mZ, m = m12 = lcm(n1, n2, d), is its prefix of length m / d.
    The rows n2 = 1..n1 lie end to end; every row length is a multiple of
    n1, so u_n1 simply repeats.
    """
    ns = np.arange(1, n1 + 1, dtype=np.int64)
    lengths = n1 * ns
    starts = np.cumsum(lengths) - lengths
    u2 = np.concatenate([r[:n1 * n2] for n2, r in enumerate(reps[:n1], 1)])
    prod = np.tile(reps[n1 - 1][:n1], n1 * (n1 + 1) // 2) * u2
    csum = np.concatenate(([0], np.cumsum(prod)))
    m12 = np.lcm(np.lcm(ns, d), n1)
    S = csum[starts + lengths] - csum[starts]
    S_m = csum[starts + m12 // d] - csum[starts]
    return S, S_m, m12


def moment_check_levels(levels, d: int):
    """nonarch_moment_check(K, d) for each K of the increasing levels, from
    one pass; yields one MomentCheckReport per level.

    Every pair sum, collapse test and balance test is symmetric in
    (n1, n2), so block n1 forms the pairs n2 <= n1 only and counts the rest
    twice; a level's sums are prefix sums over the blocks n1 <= K and the
    mixed terms n <= K.  Level K is checked before block K + 1 is formed,
    and fails with the message that a call at K alone would give.
    """
    levels = list(levels)
    if not (levels and all(1 <= K <= 48 for K in levels) and 1 <= d <= 8):
        raise ValueError("need 1 <= K <= 48 and 1 <= d <= 8")
    if levels != sorted(set(levels)):
        raise ValueError(f"levels must increase, got {levels}")
    K_max = levels[-1]
    t_vecs = {n: t_full(n) for n in range(1, K_max + 1)}
    reps = [np.tile(t_vecs[n][d * np.arange(n) % n], K_max)
            for n in range(1, K_max + 1)]
    ns = np.arange(1, K_max + 1, dtype=np.int64)
    m2 = np.lcm(ns, d)
    # per pair: 1 if the modulus collapse failed, 2 if it is unbalanced and
    # did not vanish
    bad = np.zeros((K_max, K_max), dtype=np.int8)
    pure_num: dict[int, int] = {}
    mixed_num: dict[int, int] = {}
    refs: dict[int, Fraction] = {}  # S+_0(m; d)/m^6, once per pass

    def ref(m):
        if m not in refs:
            refs[m] = Fraction(s_plus_zero(m, d), m**6)
        return refs[m]

    n_vanished = 0
    head = Fraction(0)
    groups_checked = 0
    done = 0  # the blocks formed and the groups checked so far
    for K in levels:
        t_max = max(int(np.abs(r[:n]).max()) for n, r in enumerate(reps[:K], 1))
        # bounds every block prefix sum (K^3 t_max^2), both sides of the
        # collapse test (K^4 d t_max^2) and every group numerator
        # (K^3 d^4 t_max^2)
        if t_max**2 * K**3 * max(K * d, d**4) > np.iinfo(np.int64).max:
            raise CheckFailed(f"moment sums at K={K}, d={d} would leave int64")
        for n1 in range(done + 1, K + 1):
            S, S_m, m12 = _pair_block(reps, n1, d)
            # modulus collapse: averaging over dZ/n1 n2 dZ equals averaging
            # over dZ/mZ with m = lcm(n1, n2, d)
            collapse_bad = S * m12 != S_m * (n1 * d * ns[:n1])
            m1 = math.lcm(n1, d)
            unbalanced = m2[:n1] != m1
            code = np.where(collapse_bad, 1, 2 * (unbalanced & (S != 0)))
            bad[n1 - 1, :n1] = bad[:n1, n1 - 1] = code
            n_vanished += 2 * int(np.count_nonzero(unbalanced))
            # S / ((n1 n2)^4 d) = S (m/n1)^4 (m/n2)^4 / (d m^8), m = m1 = m2;
            # the diagonal pair is balanced and counts once, and the others
            # are doubled as Python ints, outside the int64 bound
            keep = np.flatnonzero(~unbalanced[:-1])
            num = 2 * int(np.dot(S[keep], (m1 // ns[keep]) ** 4))
            num = (num + int(S[-1]) * (m1 // n1) ** 4) * (m1 // n1) ** 4
            pure_num[m1] = pure_num.get(m1, 0) + num
            nd = n1 * d
            counts = point_count_vector(nd)
            bs = np.arange(0, nd, d, dtype=np.int64)
            Sx = int(np.sum(counts[bs].astype(object) * t_vecs[n1][bs % n1]))
            # Sx / (n^6 d^3) = Sx m^8 / (n^6 d^2) / (d m^8), m = lcm(n, d)
            mixed_num[m1] = mixed_num.get(m1, 0) + Sx * (m1**8 // (n1**6 * d**2))
        if bad[:K, :K].any():  # name the first failing pair in (n1, n2) order
            n1, n2 = (int(i) + 1 for i in np.argwhere(bad[:K, :K])[0])
            if bad[n1 - 1, n2 - 1] == 1:
                raise CheckFailed(f"modulus collapse failed at {(n1, n2, d)}")
            raise CheckFailed(f"unbalanced pair ({n1}, {n2}) did not vanish")
        pure_groups = {m: Fraction(v, d * m**8) for m, v in pure_num.items()}
        mixed_groups = {m: Fraction(v, d * m**8) for m, v in mixed_num.items()}
        # complete groups (m <= K) must match S+_0(m; d)/m^6 one by one; a
        # group is complete once the level reaches m, and stays unchanged
        for m in range(done // d * d + d, K + 1, d):
            head += ref(m)
            for label, groups in (("pure", pure_groups), ("mixed", mixed_groups)):
                got = groups.get(m, Fraction(0))
                if got != ref(m):
                    raise CheckFailed(
                        f"{label} group m={m} is {got}, expected {ref(m)}")
            groups_checked += 1
        done = K
        pure_lhs = sum(pure_groups.values(), Fraction(0))
        mixed_lhs = sum(mixed_groups.values(), Fraction(0))
        if max(pure_num) > K * d:
            raise CheckFailed("found a regrouped modulus beyond K*d")
        tail_bound = sum((abs(ref(m)) for m in range(K + 1, K * d + 1)
                          if m % d == 0), Fraction(0))
        for label, tail in (("pure", pure_lhs - head), ("mixed", mixed_lhs - head)):
            if abs(tail) > tail_bound:
                raise CheckFailed(
                    f"{label} truncation tail {tail} exceeds the S+ bound")
        yield MomentCheckReport(
            K=K, d=d, pure_lhs=pure_lhs, mixed_lhs=mixed_lhs, head=head,
            tail_pure=pure_lhs - head, tail_mixed=mixed_lhs - head,
            tail_bound=tail_bound, n_pairs_vanished=n_vanished,
            groups_checked=groups_checked,
        )


def nonarch_moment_check(K: int, d: int) -> MomentCheckReport:
    """Exact finite-level regrouping of the pure and mixed T_b moments.

    pure LHS = sum_{n1,n2 <= K} (n1 n2 d)^-1 sum_{b in dZ/n1 n2 dZ}
               T_b(n1) T_b(n2) / (n1 n2)^3,
    mixed LHS = sum_{n <= K} (nd)^-3 sum_{e in (Z/nd)^3, d | F0(e)}
               T_{F0(e)}(n) / n^3.

    Both regroup by m = lcm(n, d); every identity below is exact in Q.
    The single-level case of moment_check_levels.
    """
    return next(moment_check_levels((K,), d))


# --------------------------------------------------------------------------
# sieved variance and the pipeline demo


@dataclass(frozen=True)
class SievedReport:
    X: int
    K: int
    hbar: float
    threshold: float  # X^hbar
    P: int  # product of primes below the threshold
    filtered: float  # variance restricted to gcd(a, P) = 1
    unfiltered: float
    comparison: float  # X^3 ||nu||_{L^2}^2 / log X
    H: Fraction  # sum over squarefree d < X^hbar of prod g/(1-g)
    H_over_log: float
    wall_time: float


def sieved_variance(X: int, K: int, hparams: HypothesisParams,
                    weight: Weight) -> SievedReport:
    """Variance over a coprime to all primes below X^hbar (exact filter)."""
    if X < 2:  # the comparison term divides by log X
        raise ValueError("X must be an integer >= 2")
    if K < 1:
        raise ValueError("need K >= 1")
    _check_positive_int("K", K)
    if K > MAX_MODULUS:
        raise ValueError(f"need K <= {MAX_MODULUS}, got K={K}")
    t0 = time.perf_counter()
    threshold = float(X) ** hparams.hbar
    if threshold > 20.0:
        raise ValueError(f"X^hbar = {threshold:.2f} exceeds the filter cap 20")
    sieve_primes = [p for p in primes_below(21) if p < threshold]
    P = math.prod(sieve_primes)
    _table, a_vec, N, s, sig = _window_vectors(X, K, 1, weight)
    diff = N - s * sig
    sq = diff * diff
    unfiltered = float(np.sum(sq))
    mask = np.ones(len(a_vec), dtype=bool)
    for p in sieve_primes:
        mask &= a_vec % p != 0
    filtered = float(np.sum(sq[mask]))
    comparison = (float(X) ** 3 * weight_l2_norm_sq(weight)
                  / math.log(X))
    # every p | dd with dd < X^hbar is itself below the threshold
    H = Fraction(0)
    for dd in range(1, math.ceil(threshold)):
        if mobius(dd) == 0:
            continue
        prod = Fraction(1)
        for p, _e in factor(dd).factors:
            g = g_density(p)
            prod *= g / (1 - g)
        H += prod
    h_norm = float(H) / math.log(threshold) if threshold > 1.0 else float(H)
    return SievedReport(
        X=X, K=K, hbar=hparams.hbar, threshold=threshold, P=P,
        filtered=filtered, unfiltered=unfiltered, comparison=comparison,
        H=H, H_over_log=h_norm, wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class PipelineRow:
    X: int
    R: float
    A: int
    K: int
    eta: float
    n_admissible: int
    n_unrepresented: int
    unrepresented_fraction: float
    n_exceptional: int  # admissible, unrepresented, and |s_a(K)| > eta
    sigma_min: float  # min density over the exceptional set (0 if empty)
    chebyshev_lhs: float  # n_exceptional * (eta * sigma_min)^2
    var: float
    chebyshev_ok: bool
    var_normalized: float  # var / (X^3 (c log R)^2)


@dataclass(frozen=True)
class PipelineReport:
    j: int
    calibration_c: float
    rows: list[PipelineRow] = field(default_factory=list)

    def fractions_non_increasing_in_R(self, X: int) -> bool:
        fr = [r.unrepresented_fraction for r in self.rows if r.X == X]
        return all(b <= a + 1e-15 for a, b in zip(fr, fr[1:]))


def pipeline_demo(R_list=(2.0, 4.0), X_list=(60,), j: int = 2) -> PipelineReport:
    """Desk-scale Chebyshev pipeline: exceptional sets vs the variance.

    For each X: A = X^3, K = floor(A^(1/(6j))), eta = (log R)^(-10/j).
    The Chebyshev inequality n_exc * (eta * sigma_min)^2 <= Var(X, K; 1)
    is exact given the computed quantities and is asserted.
    """
    if max(X_list) > 100 or max(R_list) > 8:
        raise ValueError("pipeline demo limited to X <= 100, R <= 8")
    c_cal = sigma_inf(0.0, 1.0, nu_star(2.0)) / math.log(2.0)
    rows = []
    for X in X_list:
        A = X**3
        K = int(math.floor(A ** (1.0 / (6 * j))))
        for R in R_list:
            eta = math.log(R) ** (-10.0 / j)
            nu = nu_star(R)
            _table, a_vec, N, s, sig = _window_vectors(X, K, 1, nu)
            diff = N - s * sig  # Var(X, K; 1) as variance forms it
            var = float(np.dot(diff, diff))
            window = np.abs(a_vec) <= A
            a_w, N_w, s_w = a_vec[window], N[window], s[window]
            sig_w = sig[window]
            adm = admissible(a_w)
            unrep = adm & (N_w == 0.0)
            exc = unrep & (np.abs(s_w) > eta)
            n_exc = int(np.count_nonzero(exc))
            sigma_min = float(sig_w[exc].min()) if n_exc else 0.0
            lhs = n_exc * (eta * sigma_min) ** 2
            ok = lhs <= var * (1.0 + 1e-12)
            if not ok:
                raise CheckFailed(
                    f"Chebyshev inequality failed at X={X}, R={R}")
            rows.append(PipelineRow(
                X=X, R=R, A=A, K=K, eta=eta,
                n_admissible=int(np.count_nonzero(adm)),
                n_unrepresented=int(np.count_nonzero(unrep)),
                unrepresented_fraction=float(np.count_nonzero(unrep))
                / max(int(np.count_nonzero(adm)), 1),
                n_exceptional=n_exc, sigma_min=sigma_min,
                chebyshev_lhs=lhs, var=var, chebyshev_ok=ok,
                var_normalized=var / (float(X) ** 3 * (c_cal * math.log(R)) ** 2),
            ))
    return PipelineReport(j=j, calibration_c=c_cal, rows=rows)
