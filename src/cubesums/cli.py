"""Batch command-line front end.

Subcommands cover the exact local objects (expsum, splus, series, gamma,
moments), the archimedean side (density), the lattice counts (count,
scan-primes), the variance pipeline (variance, sieved, scan-exceptional), and
an exact-identity verifier (verify).

Exit codes: 0 on success, 1 on a validation error (bad flag, parameter out of
range), 2 when a verify check failed (any CheckFailed).

Flags are the primary interface; an optional key=value config file supplies
defaults that flags override.  The CUBESUMS_CACHE_DIR environment variable
overrides any cache-dir setting.  Output is deterministic, except the
wall_time field of variance and sieved, which is the run's own timing.
verify prints text and every other subcommand CSV or JSON: CSV carries a
header row and 17-significant-digit floats, JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from . import CheckFailed, expsums, lattice, series, variance
from .densities import density_table
from .weights import nu_star


class CLIError(Exception):
    """Validation failure: reported on stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # validation path (exit 1) instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CLIError(message)


# --------------------------------------------------------------------------
# serialization


def _plain(x):
    """Recursively convert reports to JSON-serializable structures."""
    if is_dataclass(x) and not isinstance(x, type):
        x = asdict(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _json_text(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _record_csv(rep, drop=()) -> str:
    """One-row CSV of a report dataclass, columns in sorted key order."""
    d = {k: v for k, v in _plain(rep).items() if k not in drop}
    keys = sorted(d)
    return _csv_text(keys, [tuple(d[k] for k in keys)])


def _write(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write output: {exc}") from exc


# --------------------------------------------------------------------------
# configuration


def load_config(path: str) -> dict[str, str]:
    """key=value per line; blank lines and # comments ignored."""
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CLIError(f"bad config line (expected key=value): {line!r}")
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise CLIError(f"cannot read config file: {exc}") from exc
    return cfg


def _pick(args, cfg, name, cast, default=None, required=False):
    """Flag value if given, else config value, else default."""
    v = getattr(args, name, None)
    if v is None and name in cfg:
        try:
            v = cast(cfg[name])
        except ValueError as exc:
            raise CLIError(f"bad config value for {name}: {cfg[name]!r}") from exc
    if v is None:
        if required:
            raise CLIError(f"missing required parameter --{name.replace('_', '-')}")
        v = default
    return v


def _resolve_cache_dir(args, cfg) -> str | None:
    flag = args.cache_dir if args.cache_dir is not None else cfg.get("cache_dir")
    return os.environ.get("CUBESUMS_CACHE_DIR") or flag


# --------------------------------------------------------------------------
# subcommand handlers; each returns the output text


def _cmd_expsum(args, cfg, fmt):
    n = _pick(args, cfg, "modulus", int, required=True)
    if args.a is not None and args.all:
        raise CLIError("give either --a or --all, not both")
    t = expsums.t_full(n)
    if args.all or args.a is None:
        rows = [(a, int(t[a])) for a in range(n)]
    else:
        rows = [(args.a % n, int(t[args.a % n]))]
    if fmt == "json":
        return _json_text({"modulus": n, "T": {str(a): v for a, v in rows}})
    return _csv_text(("a", "T"), rows)


def _cmd_splus(args, cfg, fmt):
    n = _pick(args, cfg, "n", int, required=True)
    d = _pick(args, cfg, "d", int, default=1)
    val = expsums.s_plus_zero(n, d)
    if fmt == "csv":
        return _csv_text(("n", "d", "s_plus"), [(n, d, val)])
    return _json_text({"n": n, "d": d, "s_plus": val})


def _cmd_series(args, cfg, fmt):
    K = _pick(args, cfg, "K", int, required=True)
    a_lo = _pick(args, cfg, "a_lo", int, default=0)
    a_hi = _pick(args, cfg, "a_hi", int, required=True)
    mode = _pick(args, cfg, "mode", str, default="double")
    win = series.series_window(K, a_lo, a_hi, mode=mode)
    rows = [(a, win.s_at(a), win.m_at(a)) for a in range(a_lo, a_hi + 1)]
    if fmt == "json":
        return _json_text({"K": K, "mode": mode,
                           "s": {str(a): _plain(s) for a, s, _ in rows},
                           "M": {str(a): _plain(m) for a, _, m in rows}})
    return _csv_text(("a", "s", "M"), rows)


def _cmd_gamma(args, cfg, fmt):
    a = _pick(args, cfg, "a", int, required=True)
    p = _pick(args, cfg, "p", int)
    if p is not None:
        rep = series.gamma_factor(a, p)
    else:
        rep = series.gamma_product(a, _pick(args, cfg, "p_max", int, default=1000))
    if fmt == "csv":
        return _record_csv(rep, drop=("factors",))
    return _json_text(rep)


def _cmd_density(args, cfg, fmt):
    R = _pick(args, cfg, "R", float, default=2.0)
    grid = _pick(args, cfg, "grid", int, default=256)
    table = density_table(nu_star(R), grid_size=grid)
    if fmt == "json":
        return _json_text({"weight": table.weight.name, "R": table.weight.R,
                           "grid": table.grid, "sigma": table.values,
                           "max_validation_error": table.max_validation_error})
    rows = zip(table.grid.tolist(), table.values.tolist())
    return _csv_text(("a_tilde", "sigma"), rows)


def _cmd_count(args, cfg, fmt):
    X = _pick(args, cfg, "X", int, required=True)
    R = _pick(args, cfg, "R", float, default=2.0)
    table = lattice.count_weighted(X, nu_star(R), exact=False)
    a_vals, masses = table.nonzero_items()
    if fmt == "json":
        return _json_text({"X": X, "R": R, "n_alive": table.n_alive,
                           "N": {str(int(a)): float(v)
                                 for a, v in zip(a_vals, masses)}})
    return _csv_text(("a", "N"), zip(a_vals.tolist(), masses.tolist()))


def _cmd_variance(args, cfg, fmt):
    X = _pick(args, cfg, "X", int, required=True)
    K = _pick(args, cfg, "K", int, required=True)
    d = _pick(args, cfg, "d", int, default=1)
    R = _pick(args, cfg, "R", float, default=2.0)
    rep = variance.variance(X, K, d, nu_star(R),
                            with_special=not args.no_special)
    if fmt == "csv":
        return _record_csv(rep)
    return _json_text(rep)


def _cmd_sieved(args, cfg, fmt):
    X = _pick(args, cfg, "X", int, required=True)
    K = _pick(args, cfg, "K", int, required=True)
    hp = variance.HypothesisParams(
        delta=_pick(args, cfg, "delta", float, default=0.1),
        hbar=_pick(args, cfg, "hbar", float, required=True),
    )
    R = _pick(args, cfg, "R", float, default=2.0)
    rep = variance.sieved_variance(X, K, hp, nu_star(R))
    if fmt == "csv":
        return _record_csv(rep)
    return _json_text(rep)


def _cmd_moments(args, cfg, fmt):
    K = _pick(args, cfg, "K", int, required=True)
    d = _pick(args, cfg, "d", int, default=1)
    rep = variance.nonarch_moment_check(K, d)
    if fmt == "csv":
        return _record_csv(rep)
    return _json_text(rep)


def _cmd_scan_exceptional(args, cfg, fmt):
    A = _pick(args, cfg, "A", int, required=True)
    K = _pick(args, cfg, "K", int, required=True)
    eta = _pick(args, cfg, "eta", float, required=True)
    bw = _pick(args, cfg, "bin_width", float, default=0.25)
    rep = series.exceptional_scan(A, K, eta, bin_width=bw)
    if fmt == "csv":
        rows = zip(rep.hist_edges[:-1].tolist(), rep.hist_edges[1:].tolist(),
                   rep.hist_counts.tolist())
        return _csv_text(("s_lo", "s_hi", "count"), rows)
    return _json_text(rep)


def _cmd_scan_primes(args, cfg, fmt):
    A = _pick(args, cfg, "A", int, required=True)
    rep = lattice.prime_demo(A)
    if fmt == "csv":
        return _record_csv(rep)
    return _json_text(rep)


# --------------------------------------------------------------------------
# verify suites


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _verify_modulus(m: int) -> str:
    n_vec = expsums.point_count_vector(m)
    _require(int(n_vec.sum()) == m**3, f"sum N_a({m}) != {m}^3")
    if m <= 64:
        brute = expsums.point_counts_bruteforce(m)
        _require(np.array_equal(n_vec, brute), f"N_a({m}) convolution != brute")
    t = expsums.t_full(m)
    expect = 1 if m == 1 else 0  # T_a(1) = 1; the sum telescopes for m > 1
    _require(int(np.asarray(t, dtype=object).sum()) == expect, f"sum_a T_a({m})")
    return f"ok modulus {m}"


def _verify_local(max_modulus: int, rng) -> list[str]:
    lines = [_verify_modulus(m) for m in range(1, max_modulus + 1)]
    # multiplicativity spot checks on random coprime factorizations
    for _ in range(20):
        n1 = int(rng.integers(2, max(3, max_modulus // 2)))
        n2 = int(rng.integers(2, max(3, max_modulus // 2)))
        if math.gcd(n1, n2) != 1 or n1 * n2 > 4096:
            continue
        a = int(rng.integers(0, n1 * n2))
        lhs = int(expsums.t_single(a, n1 * n2))
        rhs = int(expsums.t_single(a % n1, n1)) * int(expsums.t_single(a % n2, n2))
        _require(lhs == rhs, f"T_{a}({n1}*{n2}) not multiplicative")
    lines.append("ok multiplicativity spot checks")
    # the cube map is a bijection mod 2 and mod 3, so T_a vanishes there
    for m in (2, 3):
        if m <= max_modulus:
            _require(not np.any(expsums.t_full(m)), f"T_a({m}) != 0")
    lines.append("ok vanishing at 2 and 3")
    return lines


def _verify_moments(max_k: int) -> list[str]:
    lines = []
    for d in range(1, 5):
        for K in range(1, min(max_k, 48) + 1):
            # raises CheckFailed when a regrouping identity or tail bound fails
            variance.nonarch_moment_check(K, d)
            lines.append(f"ok moments K={K} d={d}")
    return lines


def _verify_lattice() -> list[str]:
    w = nu_star(2.0)
    table = lattice.count_weighted(10, w)
    lines = []
    for d in (1, 2, 3):
        exact = lattice.pair_count_exact(table, d)
        brute = lattice.pair_count_bruteforce(10, d, w)
        _require(exact == brute, f"pair count mismatch at d={d}")
        lines.append(f"ok pair count d={d}")
    sp = lattice.special_count(10, 1, w, table=table)
    _require(sp.diag + sp.correction == sp.formula_value,
             "special-count identity")
    lines.append("ok special-count identity")
    return lines


def _cmd_verify(args, cfg, fmt):
    suite = _pick(args, cfg, "suite", str, default="local")
    if suite not in ("local", "moments", "lattice", "all"):
        raise CLIError(f"unknown suite {suite!r}")
    max_modulus = _pick(args, cfg, "max_modulus", int, default=50)
    if max_modulus < 1:
        raise CLIError("--max-modulus must be >= 1")
    rng = np.random.default_rng(args.resolved_seed)
    lines: list[str] = []
    if suite in ("local", "all"):
        lines += _verify_local(max_modulus, rng)
    if suite in ("moments", "all"):
        lines += _verify_moments(min(max_modulus, 12))
    if suite in ("lattice", "all"):
        lines += _verify_lattice()
    lines.append(f"verify {suite}: {len(lines)} checks passed")
    return "\n".join(lines) + "\n"


# each handler with the formats it prints, its default first
_HANDLERS = {
    "expsum": (_cmd_expsum, ("csv", "json")),
    "splus": (_cmd_splus, ("json", "csv")),
    "series": (_cmd_series, ("csv", "json")),
    "gamma": (_cmd_gamma, ("json", "csv")),
    "density": (_cmd_density, ("csv", "json")),
    "count": (_cmd_count, ("csv", "json")),
    "variance": (_cmd_variance, ("json", "csv")),
    "sieved": (_cmd_sieved, ("json", "csv")),
    "verify": (_cmd_verify, ("text",)),
    "scan-exceptional": (_cmd_scan_exceptional, ("json", "csv")),
    "scan-primes": (_cmd_scan_primes, ("json", "csv")),
    "moments": (_cmd_moments, ("json", "csv")),
}


_GLOBAL_FLAGS = ("config", "cache_dir", "output", "format", "threads", "seed")


def _build_parser() -> _Parser:
    # global flags are accepted both before and after the subcommand; the
    # shared parent uses SUPPRESS so a subparser never clobbers a value that
    # was given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file; flags win")
    common.add_argument("--cache-dir", dest="cache_dir",
                        default=argparse.SUPPRESS,
                        help="directory that keeps the S1 surface table "
                             "between runs (CUBESUMS_CACHE_DIR overrides)")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="output path, default stdout")
    common.add_argument("--format", choices=("csv", "json", "text"),
                        default=argparse.SUPPRESS,
                        help="text for verify, csv or json for the rest")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="accepted and validated (>= 1); every command "
                             "runs in one thread")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    ap = _Parser(prog="cubesums", parents=[common],
                 description="local and global statistics of x^3+y^3+z^3 = a")
    sub = ap.add_subparsers(dest="subcommand")

    def add(name, help_text):
        return sub.add_parser(name, parents=[common], help=help_text)

    p = add("expsum", "complete sum T_a(n)")
    p.add_argument("--modulus", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--all", action="store_true")

    p = add("splus", "twisted diagonal sum S+_0(n; d)")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)

    p = add("series", "truncated series s_a(K), M_a(K)")
    p.add_argument("--K", type=int)
    p.add_argument("--a-lo", dest="a_lo", type=int)
    p.add_argument("--a-hi", dest="a_hi", type=int)
    p.add_argument("--mode", choices=("double", "exact"))

    p = add("gamma", "local factor gamma_p(a) or its product")
    p.add_argument("--a", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--p-max", dest="p_max", type=int)

    p = add("density", "archimedean density table")
    p.add_argument("--R", type=float)
    p.add_argument("--grid", type=int)

    p = add("count", "weighted lattice counts N_w(a; X)")
    p.add_argument("--X", type=int)
    p.add_argument("--R", type=float)

    p = add("variance", "K-approximate variance decomposition")
    p.add_argument("--X", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--no-special", action="store_true")

    p = add("sieved", "variance with small-prime sieve filter")
    p.add_argument("--X", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--hbar", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--R", type=float)

    p = add("verify", "exact identity suites")
    p.add_argument("--suite", choices=("local", "moments", "lattice", "all"))
    p.add_argument("--max-modulus", dest="max_modulus", type=int)

    p = add("scan-exceptional", "histogram of s_a(K) near 0")
    p.add_argument("--A", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--bin-width", dest="bin_width", type=float)

    p = add("scan-primes", "r_3 statistics over primes up to A")
    p.add_argument("--A", type=int)

    p = add("moments", "exact truncated-moment regrouping")
    p.add_argument("--K", type=int)
    p.add_argument("--d", type=int)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name in _GLOBAL_FLAGS:  # SUPPRESS leaves unset flags absent
            if not hasattr(args, name):
                setattr(args, name, None)
        if args.subcommand is None:
            raise CLIError("a subcommand is required")
        cfg = load_config(args.config) if args.config else {}
        cache_dir = _resolve_cache_dir(args, cfg)
        if cache_dir is not None:
            expsums.configure_cache(cache_dir)
        threads = _pick(args, cfg, "threads", int, default=1)
        args.resolved_seed = _pick(args, cfg, "seed", int, default=0)
        if threads < 1:
            raise CLIError("--threads must be >= 1")
        handler, formats = _HANDLERS[args.subcommand]
        fmt = _pick(args, cfg, "format", str, default=formats[0])
        if fmt not in formats:
            raise CLIError(f"{args.subcommand} prints "
                           f"{' or '.join(formats)}, not {fmt!r}")
        _write(handler(args, cfg, fmt), _pick(args, cfg, "output", str))
    except CLIError as exc:
        print(f"cubesums: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cubesums: {exc}", file=sys.stderr)
        return 1
    except CheckFailed as exc:
        print(f"cubesums: FAIL {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
