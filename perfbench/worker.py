"""One round of one benchmark workload, in a fresh interpreter.

run.py starts this script once per round:

    python3 perfbench/worker.py SPEC.json

SPEC.json names the workload, the seed, an empty cache directory, the
result path and whether to keep spans (trace) or corrupt one result
(self-check).  The round has three phases:

* setup: import the package modules the workload uses, point the disk
  cache at the round's empty directory, and make the workload's warm-up
  call, which forces the input-independent lazy state;
* work: one seeded call after another (a closed loop with one client);
  every call into the package is timed from here and charged to the
  per-layer metric of the public function that was called;
* check: every output is checked against an identity or an oracle that
  the package already has.  Checks raise CheckFailed, so ``python -O``
  cannot strip them.  A call fails if it raised or if a check of its
  output failed.

Times are CLOCK_MONOTONIC readings, which are comparable across processes,
so run.py can measure set-up and wall time from the moment it spawned this
process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class CheckFailed(Exception):
    """An output of the package disagrees with its identity or oracle."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Recorder:
    """Times calls and checks; keeps spans in memory when tracing.

    A span is (id, name, start, end, parent, run).  The phases are the
    parents of the call spans; the parent of a phase is the run id.
    """

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.traced = traced
        self.spans: list[dict] = []
        self.work_s = 0.0
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self._parents = [run_id]
        self._in_work = False

    def _span(self, name: str, start: float, end: float, **extra) -> None:
        if self.traced:
            self.spans.append({"id": f"{self.run_id}/{len(self.spans)}",
                               "name": name, "start": start, "end": end,
                               "parent": self._parents[-1],
                               "run": self.run_id, **extra})

    @contextlib.contextmanager
    def phase(self, name: str):
        start = now()
        span_id = f"{self.run_id}/{name}"
        self._parents.append(span_id)
        self._in_work = name == "work"
        try:
            yield
        finally:
            self._parents.pop()
            self._in_work = False
            if self.traced:
                self.spans.append({"id": span_id, "name": name,
                                   "start": start, "end": now(),
                                   "parent": self._parents[-1],
                                   "run": self.run_id})

    def call(self, metric: str, fn, *args, **kwargs):
        """Time fn(*args, **kwargs); return (call index, result or None)."""
        idx = self.attempted
        self.attempted += 1
        start = now()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failed call is counted, the round goes on
            out = None
            self.failed.add(idx)
            self.errors.append(f"{metric} raised:\n{traceback.format_exc()}")
        end = now()
        if self._in_work:
            self.work_s += end - start
        self._span(metric, start, end, call=getattr(fn, "__name__", str(fn)))
        return idx, out

    def check(self, indices, fn, *args) -> None:
        """Run one output check; on failure mark the calls it covers."""
        try:
            fn(*args)
        except Exception:  # CheckFailed, or a call that returned nothing
            self.failed.update(indices)
            self.errors.append(f"check {fn.__name__} on calls {list(indices)} "
                               f"failed:\n{traceback.format_exc()}")


def _configure_fresh_cache(cache_dir: str) -> None:
    from cubesums import expsums

    expsums.configure_cache(cache_dir)


# ---------------------------------------------------------------------------
# local: the exact layer (arith, cache, expsums, series) plus the exact
# moment check of variance and the CLI verifier.  No lattice or quadrature
# code runs.

# prime squares in (4096, 8192]: the first gamma_product computes their
# point counts through the NTT, so a seeded large modulus avoids them and
# the first gamma_product always pays for the same six transforms
_GAMMA_SQUARES = {67**2, 71**2, 73**2, 79**2, 83**2, 89**2}
# prime powers in [961, 4096]: T-vectors small enough for the direct route
_PRIME_POWERS = [(2, 11), (2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3),
                 (31, 2), (37, 2), (41, 2), (43, 2), (47, 2), (53, 2),
                 (59, 2), (61, 2)]


def local_inputs(seed: int) -> dict:
    rng = random.Random(f"local:{seed}")
    while True:
        n1, n2 = rng.randint(20, 60), rng.randint(20, 60)
        if math.gcd(n1, n2) == 1:
            break
    gamma_a = []
    while len(gamma_a) < 3:
        a = rng.choice((-1, 1)) * rng.randint(1, 60)
        if a % 9 not in (4, 5) and a not in gamma_a:
            gamma_a.append(a)
    lo = rng.randint(-10**6, 10**6)
    return {
        "small": rng.sample(range(2, 65), 3),
        "mid": rng.sample(range(3073, 4097), 2),
        "large": rng.choice([m for m in range(4097, 8193)
                             if m not in _GAMMA_SQUARES]),
        "coprime": [n1, n2],
        "prime_powers": rng.sample(_PRIME_POWERS, 2),
        "gamma_a": gamma_a,
        "window": [lo, lo + 100_000],
        "exact_window": [lo + rng.randint(0, 99_936), 64],
        "window_K": 32,
        "moments": [[rng.randint(24, 40), rng.randint(1, 4)] for _ in range(4)],
        "verify_seed": rng.randint(0, 2**31 - 1),
    }


def local_setup(rec: Recorder, inp: dict, cache_dir: str) -> dict:
    from cubesums import arith, cli, expsums, series, variance  # noqa: F401

    _configure_fresh_cache(cache_dir)
    rec.call("arith.sieve_s", arith.primes_below, 1001)
    return {}


def _verify(argv: list[str]) -> tuple[int, str]:
    from cubesums import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def local_work(rec: Recorder, inp: dict, state: dict, cache_dir: str) -> dict:
    from cubesums import expsums, series, variance

    res: dict = {"pcv": [], "t_full": {}, "t_pp": {}, "gamma": [], "moments": []}
    for m in inp["small"] + inp["mid"]:
        res["pcv"].append((m, rec.call("expsums.pcv_direct_s",
                                       expsums.point_count_vector, m)))
    m = inp["large"]
    res["pcv"].append((m, rec.call("expsums.pcv_large_s",
                                   expsums.point_count_vector, m)))

    n1, n2 = inp["coprime"]
    for n in (n1, n2, n1 * n2):
        res["t_full"][n] = rec.call("expsums.t_full_s", expsums.t_full, n)
    for p, l in inp["prime_powers"]:
        res["t_pp"][(p, l)] = rec.call("expsums.t_full_s",
                                       expsums.t_prime_power, p, l)
    # configure_cache clears the lru statistics of t_full / t_prime_power
    state["lru_before_reload"] = _lru_totals()
    expsums.configure_cache(cache_dir)
    res["t_full_reload"] = {n: rec.call("expsums.reload_s", expsums.t_full, n)
                            for n in (n1, n2, n1 * n2)}
    res["t_pp_reload"] = {pl: rec.call("expsums.reload_s",
                                       expsums.t_prime_power, *pl)
                          for pl in res["t_pp"]}

    for i, a in enumerate(inp["gamma_a"]):
        metric = "series.gamma_first_s" if i == 0 else "series.gamma_repeat_s"
        res["gamma"].append((a, rec.call(metric, series.gamma_product, a, 1000)))

    K = inp["window_K"]
    lo, hi = inp["window"]
    res["window_double"] = rec.call("series.window_double_s",
                                    series.series_window, K, lo, hi, "double")
    elo, width = inp["exact_window"]
    res["window_exact"] = rec.call("series.window_exact_s",
                                   series.series_window, K, elo,
                                   elo + width - 1, "exact")

    for K, d in inp["moments"]:
        res["moments"].append(((K, d), rec.call(
            "variance.moment_check_s", variance.nonarch_moment_check, K, d)))

    seed = str(inp["verify_seed"])
    res["verify"] = [
        rec.call("cli.verify_s", _verify,
                 ["verify", "--suite", suite, "--max-modulus", "50",
                  "--seed", seed])
        for suite in ("local", "moments")]
    return res


def local_corrupt(res: dict) -> None:
    m, (idx, vec) = res["pcv"][0]
    bad = vec.copy()
    bad[0] += 1
    res["pcv"][0] = (m, (idx, bad))


def local_check(rec: Recorder, inp: dict, res: dict) -> None:
    import numpy as np

    from cubesums import expsums, series

    def mass(m, vec):
        require(int(vec.sum()) == m**3, f"sum_a N_a({m}) != {m}^3")

    def brute(m, vec):
        require(np.array_equal(vec, expsums.point_counts_bruteforce(m)),
                f"N_a({m}) differs from brute force")

    def t_sum(n, vec):
        total = int(np.asarray(vec, dtype=object).sum())
        require(total == (1 if n == 1 else 0), f"sum_a T_a({n}) = {total}")

    def multiplicative(v1, v2, v12):
        n1, n2 = len(v1), len(v2)
        a = np.arange(n1 * n2)
        lhs = np.asarray(v12, dtype=object)
        rhs = (np.asarray(v1, dtype=object)[a % n1]
               * np.asarray(v2, dtype=object)[a % n2])
        require(np.array_equal(lhs, rhs), f"T({n1}*{n2}) not multiplicative")

    def same(cold, warm):
        require(np.array_equal(np.asarray(cold), np.asarray(warm)),
                "reloaded vector differs from the cold one")

    def gamma(a, rep):
        prod = math.prod(rep.factors.values())
        require(math.isclose(prod, rep.value, rel_tol=1e-12),
                f"gamma product of a={a} differs from its factors")
        for p in (2, 3, 7, 997):
            g = float(series.gamma_factor(a, p).value)
            require(g == rep.factors[p], f"gamma_{p}({a}) differs on recompute")

    def windows(dbl, ex):
        for a in range(ex.a_lo, ex.a_hi + 1):
            for name, x, y in (("s", dbl.s_at(a), ex.s_at(a)),
                               ("M", dbl.m_at(a), ex.m_at(a))):
                require(abs(x - float(y)) <= 1e-9 * max(1.0, abs(float(y))),
                        f"double and exact {name}_{a}(K) disagree")

    def moments(K, d, rep):
        require(abs(rep.tail_pure) <= rep.tail_bound, "pure tail over bound")
        require(abs(rep.tail_mixed) <= rep.tail_bound, "mixed tail over bound")
        require(rep.groups_checked == K // d, "not every complete group checked")

    def verify(out):
        code, text = out
        require(code == 0, f"verify exited {code}")
        require(text.rstrip().endswith("checks passed"), "verify output")

    for m, (idx, vec) in res["pcv"]:
        rec.check([idx], mass, m, vec)
        if m <= 64:
            rec.check([idx], brute, m, vec)
    for n, (idx, vec) in res["t_full"].items():
        rec.check([idx], t_sum, n, vec)
    (i1, v1), (i2, v2), (i12, v12) = res["t_full"].values()
    rec.check([i1, i2, i12], multiplicative, v1, v2, v12)
    for (p, l), (idx, vec) in res["t_pp"].items():
        rec.check([idx], t_sum, p**l, vec)
    for cold, warm in ((res["t_full"], res["t_full_reload"]),
                       (res["t_pp"], res["t_pp_reload"])):
        for key, (idx, vec) in warm.items():
            rec.check([idx], same, cold[key][1], vec)
    for a, (idx, rep) in res["gamma"]:
        rec.check([idx], gamma, a, rep)
    (i_d, dbl), (i_e, ex) = res["window_double"], res["window_exact"]
    rec.check([i_d, i_e], windows, dbl, ex)
    for (K, d), (idx, rep) in res["moments"]:
        rec.check([idx], moments, K, d, rep)
    for idx, out in res["verify"]:
        rec.check([idx], verify, out)


# ---------------------------------------------------------------------------
# lattice: the weights and lattice layers (nu_star evaluation, box
# enumeration, the exact dyadic ledger).  No expsums or quadrature code runs
# apart from the Gauss rule behind the r-integral.

LATTICE_R = 2.0
LATTICE_X = 20  # count_weighted(exact=True)
SPECIAL_X = 16
ORACLE_X = 8  # small enough for pair_count_bruteforce


def lattice_inputs(seed: int) -> dict:
    rng = random.Random(f"lattice:{seed}")
    return {
        "batch_seed": rng.randint(0, 2**31 - 1),
        "batch_size": 100_000,
        "pair_d": rng.sample(range(1, 13), 2),
        "oracle_d": rng.randint(1, 6),
        "special_d": rng.randint(2, 6),
        "prime_A": rng.randint(500_000, 1_000_000),
        "prime_A_small": rng.randint(1000, 3000),
    }


def lattice_setup(rec: Recorder, inp: dict, cache_dir: str) -> dict:
    from cubesums import arith, lattice, weights  # noqa: F401

    _configure_fresh_cache(cache_dir)
    nu = weights.nu_star(LATTICE_R)
    # a fixed support sample: the first evaluation builds the r-rule
    warm = weights.sample_support_candidates(LATTICE_R, 256, seed=0)
    rec.call("weights.rrule_setup_s", nu.evaluate, warm)
    return {"nu": nu}


def lattice_work(rec: Recorder, inp: dict, state: dict, cache_dir: str) -> dict:
    from cubesums import lattice, weights

    nu = state["nu"]
    res: dict = {"nu": nu}
    _, pts = rec.call("weights.sample_s", weights.sample_support_candidates,
                      LATTICE_R, inp["batch_size"], seed=inp["batch_seed"])
    res["points"] = pts
    res["evals"] = rec.call("weights.evaluate_s", nu.evaluate, pts)
    res["count"] = rec.call("lattice.count_exact_s", lattice.count_weighted,
                            LATTICE_X, nu, exact=True)
    res["pairs"] = [(d, rec.call("lattice.pair_exact_s",
                                 lattice.pair_count_exact, res["count"][1], d))
                    for d in inp["pair_d"]]
    res["oracle_count"] = rec.call("lattice.count_exact_s",
                                   lattice.count_weighted, ORACLE_X, nu,
                                   exact=True)
    res["oracle_pair"] = rec.call("lattice.pair_exact_s",
                                  lattice.pair_count_exact,
                                  res["oracle_count"][1], inp["oracle_d"])
    res["special"] = rec.call("lattice.special_s", lattice.special_count,
                              SPECIAL_X, inp["special_d"], nu)
    res["primes"] = rec.call("lattice.prime_demo_s", lattice.prime_demo,
                             inp["prime_A"])
    res["primes_small"] = rec.call("lattice.prime_demo_s", lattice.prime_demo,
                                   inp["prime_A_small"])
    return res


def lattice_corrupt(res: dict) -> None:
    res["count"][1].n_alive += 1


def _check_count_table(table) -> None:
    import numpy as np

    require(table.n_alive == int(table.point_counts.sum()),
            "n_alive differs from the sum of point counts")
    require(bool(np.all(table.bins >= 0.0)), "negative fiber mass")
    w = table.witnesses.astype(object)
    require(all(y1**3 + y2**3 + y3**3 == a for y1, y2, y3, a in w),
            "a witness point is not on its fiber")


def lattice_check(rec: Recorder, inp: dict, res: dict) -> None:
    import numpy as np

    from cubesums import arith, lattice

    nu = res["nu"]

    def symmetric(pts, vals):
        require(bool(np.all(vals >= 0.0)) and bool(np.all(np.isfinite(vals))),
                "weight values not finite and nonnegative")
        # the r-integral's matrix product may round differently in another
        # batch, so exact invariance is checked between batches of one size
        sub = pts[:5000]
        base = nu.evaluate(sub)
        require(np.allclose(base, vals[:5000], rtol=1e-12, atol=1e-15),
                "nu_star values depend on the batch")
        for image in (-sub, sub[:, [1, 2, 0]], sub[:, [1, 0, 2]]):
            require(np.array_equal(nu.evaluate(image), base),
                    "nu_star is not exactly even and S3-symmetric")

    def pair_vs_brute(d, exact):
        brute = lattice.pair_count_bruteforce(ORACLE_X, d, nu)
        require(exact == brute, f"pair count at d={d} differs from brute force")

    def pair_vs_float(table, d, exact):
        # the exact dyadic ledger against the float fiber masses
        fl = lattice.pair_count(LATTICE_X, d, nu, table=table)
        ex = lattice.exact_to_float(exact, 2 * lattice.EXACT_SHIFT)
        require(ex > 0.0 and math.isclose(ex, fl, rel_tol=1e-12),
                f"exact and float pair counts at d={d} disagree")

    def special(rep):
        require(rep.diag <= rep.formula_value, "diagonal exceeds the 3!-formula")
        require(math.isclose(rep.diag + rep.correction, rep.formula_value,
                             rel_tol=1e-12), "diag + correction != formula")

    def primes_large(rep, A):
        require(rep.n_primes == len(arith.primes_below(A + 1)), "prime count")
        require(0 < rep.sum_r3 and rep.sum_r3**2 <= rep.n_primes * rep.sum_r3_sq,
                "r3 sums violate Cauchy-Schwarz")

    def primes_small(rep, A):
        direct = sum(lattice.r3_nonneg(p) for p in arith.primes_below(A + 1))
        require(rep.sum_r3 == direct, "prime_demo sum_r3 differs from r3_nonneg")

    i_e, vals = res["evals"]
    rec.check([i_e], symmetric, res["points"], vals)
    for key in ("count", "oracle_count"):
        idx, table = res[key]
        rec.check([idx], _check_count_table, table)
    for d, (idx, exact) in res["pairs"]:
        rec.check([idx], pair_vs_float, res["count"][1], d, exact)
    i_o, exact = res["oracle_pair"]
    rec.check([i_o, res["oracle_count"][0]], pair_vs_brute, inp["oracle_d"], exact)
    i_s, rep = res["special"]
    rec.check([i_s], special, rep)
    i_p, rep = res["primes"]
    rec.check([i_p], primes_large, rep, inp["prime_A"])
    i_p, rep = res["primes_small"]
    rec.check([i_p], primes_small, rep, inp["prime_A_small"])


# ---------------------------------------------------------------------------
# archimedean: the quadrature and densities layers.  chi_surface(b) is the
# unit of work of the S1 surface table (one adaptive 2-d integration per
# table node) and sigma_inf(method="direct") is the 2-d adaptive quadrature
# of nu_star.  The float lattice count stands in for the counts the variance
# pipeline feeds on.  The S1 table itself (density_table, variance,
# sieved_variance) costs more than one run may take, so it is not called.

ARCH_R = 2.0
ARCH_SIGMA_TOL = 1e-4
ARCH_NODES = 8  # Gauss-Legendre nodes in log r on [1, R]
ARCH_COUNT_X = 16
# the density table accepts interpolation up to this relative error
TWO_ROUTE_TOL = 1e-3


def archimedean_inputs(seed: int) -> dict:
    rng = random.Random(f"archimedean:{seed}")
    # the adaptive mesh of sigma_inf has a near-constant size for |a~| below
    # 0.8 and above 2.2 but jumps in between, so the pair |a~| = u, 3 - u
    # keeps both the work and the peak memory nearly the same for every seed
    u = rng.uniform(0.15, 0.8)
    probes = []
    for atil in (u, 3.0 - u):
        X = rng.randint(10, 40)
        probes.append([rng.choice((-1.0, 1.0)) * atil * X**3, X])
    return {"probes": probes}


def archimedean_setup(rec: Recorder, inp: dict, cache_dir: str) -> dict:
    from cubesums import densities, lattice, quadrature, weights  # noqa: F401

    _configure_fresh_cache(cache_dir)
    rec.call("densities.chi_first_s", densities.chi_surface, 0.0)
    r, w = quadrature.log_panel_rule(1.0, ARCH_R, 1, ARCH_NODES)
    return {"nu": weights.nu_star(ARCH_R), "r": r, "w": w}


def archimedean_work(rec: Recorder, inp: dict, state: dict, cache_dir: str) -> dict:
    from cubesums import densities, lattice

    nu = state["nu"]
    res: dict = {"probes": [], "w": state["w"]}
    for a, X in inp["probes"]:
        atil = a / X**3
        chi = [rec.call("densities.chi_surface_s", densities.chi_surface,
                        atil / r**3) for r in state["r"]]
        sigma = rec.call("densities.sigma_direct_s", densities.sigma_inf, a, X,
                         nu, rel_tol=ARCH_SIGMA_TOL, method="direct")
        res["probes"].append((atil, chi, sigma))
    res["count"] = rec.call("lattice.count_float_s", lattice.count_weighted,
                            ARCH_COUNT_X, nu, exact=False)
    return res


def archimedean_corrupt(res: dict) -> None:
    atil, chi, (idx, sigma) = res["probes"][0]
    res["probes"][0] = (atil, chi, (idx, sigma * 1.01))


def archimedean_check(rec: Recorder, inp: dict, res: dict) -> None:
    from cubesums import weights

    w = res["w"]

    def two_routes(atil, chi_vals, sigma):
        # the fast route: sigma = w0(a~) * int_1^R S1(a~ / r^3) dr / r
        require(all(v > 0.0 for v in chi_vals), "S1 not positive on |b| < 3")
        fast = weights.bump("w0", atil) * sum(v * wj for v, wj in zip(chi_vals, w))
        require(sigma > 0.0, "sigma_inf not positive inside the support")
        require(abs(fast - sigma) <= TWO_ROUTE_TOL * sigma,
                f"direct sigma {sigma!r} and S1 route {fast!r} disagree")

    for atil, chi, (i_s, sigma) in res["probes"]:
        rec.check([i_s] + [i for i, _ in chi], two_routes, atil,
                  [v for _, v in chi], sigma)
    idx, table = res["count"]
    rec.check([idx], _check_count_table, table)


WORKLOADS = {
    "local": (local_inputs, local_setup, local_work, local_corrupt, local_check),
    "lattice": (lattice_inputs, lattice_setup, lattice_work, lattice_corrupt,
                lattice_check),
    "archimedean": (archimedean_inputs, archimedean_setup, archimedean_work,
                    archimedean_corrupt, archimedean_check),
}


# ---------------------------------------------------------------------------
# counters read from public return values and cache_info()


def _lru_totals() -> tuple[int, int]:
    expsums = sys.modules.get("cubesums.expsums")
    if expsums is None:
        return 0, 0
    infos = [f.cache_info() for f in (expsums.cube_counts,
                                      expsums.point_count_vector,
                                      expsums.t_prime_power, expsums.t_full)]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _counters(state: dict, res: dict, cache_dir: str) -> dict:
    hits, misses = _lru_totals()
    before = state.get("lru_before_reload", (0, 0))
    files = [p for p in Path(cache_dir).rglob("*") if p.is_file()]
    tables = [res[key][1] for key in ("count", "oracle_count") if key in res]
    alive = sum(t.n_alive for t in tables if t is not None)
    evals = res["evals"][1] if "evals" in res else None
    sigma_calls = len(res.get("probes", ()))
    return {
        "expsums.lru_hits": hits + before[0],
        "expsums.lru_misses": misses + before[1],
        "cache.files": len(files),
        "cache.bytes": sum(p.stat().st_size for p in files),
        "lattice.points_alive": alive,
        "weights.evals": 0 if evals is None else len(evals),
        "densities.sigma_calls": sigma_calls,
    }


def reference_s() -> float:
    """Seconds for a fixed mix of pure-Python integer and numpy work.

    The speed of the shared machine drifts by tens of percent over minutes.
    Measured at the end of every round, this tells how fast the machine ran
    then; run.py expresses the round's times in units of it.
    """
    import numpy as np

    start = now()
    x = 1
    for _ in range(1_200_000):
        x = x * 4179340454199820289 % 1945555039024054273
    arr = np.random.default_rng(0).uniform(0.1, 1.0, 1_000_000)
    for _ in range(20):
        np.sort(np.exp(-1.0 / arr))
    return now() - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    inputs_fn, setup_fn, work_fn, corrupt_fn, check_fn = WORKLOADS[spec["workload"]]
    rec = Recorder(spec["run_id"], spec["trace"])
    inp = inputs_fn(spec["seed"])
    cache_dir = spec["cache_dir"]
    with rec.phase("setup"):
        state = setup_fn(rec, inp, cache_dir)
    setup_end = now()
    with rec.phase("work"):
        res = work_fn(rec, inp, state, cache_dir)
    work_end = now()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counters = _counters(state, res, cache_dir)
    if spec["corrupt"]:
        corrupt_fn(res)
    with rec.phase("check"):
        check_fn(rec, inp, res)
    out = {
        "ref_s": reference_s(),
        "setup_end": setup_end,
        "work_end": work_end,
        "work_s": rec.work_s,
        "counters": counters,
        "peak_rss_kb": peak_kb,
        "attempted": rec.attempted,
        "failed": len(rec.failed),
        "errors": rec.errors,
        "spans": rec.spans,
    }
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
