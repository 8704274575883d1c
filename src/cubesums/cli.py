"""Batch command-line front end.

Subcommands cover the exact local objects (expsum, splus, series, gamma,
moments), the archimedean side (density), the lattice counts (count,
scan-primes), the variance pipeline (variance, sieved, scan-exceptional), and
an exact-identity verifier (verify).

Exit codes: 0 on success, 1 on a validation error (bad flag, parameter out of
range), 2 when a verify check failed (any CheckFailed).

Each subcommand is declared once, in _COMMANDS: handler, formats (default
first), help, and flags as (name, type or choices, default or REQUIRED).
_GLOBAL_FLAGS holds the flags that every subcommand takes, before or after
its name.  Argparse reads both tables: each flag takes its value from the
command line, else its table default; --cache-dir alone names the S1 store.
Output is deterministic, except the wall_time field of variance and sieved,
which is the run's own timing.  verify prints text and every other
subcommand CSV or JSON: CSV carries a header row and 17-significant-digit
floats, JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import CheckFailed, cache, expsums, lattice, series, variance
from .arith import _check_int
from .densities import density_table
from .weights import nu_star


class CLIError(Exception):
    """Validation failure: reported on stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage and exits with status 2 on usage errors;
    # route them through the validation path (one line, exit 1) instead
    def error(self, message):
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


def _check_output(output: str | None) -> None:
    """Refuse an output path that open() would refuse, before any work; the
    file is written only at the end, so a failed run leaves no new file."""
    if output in (None, "-"):
        return
    parent = os.path.dirname(output) or os.curdir
    if os.path.isdir(output):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    exc = OSError(code, os.strerror(code), output)
    raise CLIError(f"cannot write output: {exc}")


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
# subcommand handlers; each takes the parsed flags and the format and
# returns the output text


def _report(rep, fmt, drop=()) -> str:
    return _record_csv(rep, drop) if fmt == "csv" else _json_text(rep)


def _cmd_expsum(args, fmt):
    n = args.modulus
    t = expsums.t_full(n)
    if args.a is None:
        rows = [(a, int(t[a])) for a in range(n)]
    else:
        rows = [(args.a % n, int(t[args.a % n]))]
    if fmt == "json":
        return _json_text({"modulus": n, "T": {str(a): v for a, v in rows}})
    return _csv_text(("a", "T"), rows)


def _cmd_splus(args, fmt):
    val = expsums.s_plus_zero(args.n, args.d)
    if fmt == "csv":
        return _csv_text(("n", "d", "s_plus"), [(args.n, args.d, val)])
    return _json_text({"n": args.n, "d": args.d, "s_plus": val})


def _cmd_series(args, fmt):
    K, a_lo, a_hi, mode = args.K, args.a_lo, args.a_hi, args.mode
    win = series.series_window(K, a_lo, a_hi, mode=mode)
    rows = [(a, win.s_at(a), win.m_at(a)) for a in range(a_lo, a_hi + 1)]
    if fmt == "json":
        return _json_text({"K": K, "mode": mode,
                           "s": {str(a): _plain(s) for a, s, _ in rows},
                           "M": {str(a): _plain(m) for a, _, m in rows}})
    return _csv_text(("a", "s", "M"), rows)


def _cmd_gamma(args, fmt):
    rep = (series.gamma_factor(args.a, args.p) if args.p is not None
           else series.gamma_product(args.a, args.p_max))
    return _report(rep, fmt, drop=("factors",))


def _cmd_density(args, fmt):
    table = density_table(nu_star(args.R), grid_size=args.grid)
    if fmt == "json":
        return _json_text({"weight": table.weight.name, "R": table.weight.R,
                           "grid": table.grid, "sigma": table.values,
                           "max_validation_error": table.max_validation_error})
    rows = zip(table.grid.tolist(), table.values.tolist())
    return _csv_text(("a_tilde", "sigma"), rows)


def _cmd_count(args, fmt):
    table = lattice.count_weighted(args.X, nu_star(args.R), exact=False)
    a_vals, masses = table.nonzero_items()
    if fmt == "json":
        return _json_text({"X": args.X, "R": args.R, "n_alive": table.n_alive,
                           "N": {str(int(a)): float(v)
                                 for a, v in zip(a_vals, masses)}})
    return _csv_text(("a", "N"), zip(a_vals.tolist(), masses.tolist()))


def _cmd_variance(args, fmt):
    return _report(variance.variance(args.X, args.K, args.d, nu_star(args.R)),
                   fmt)


def _cmd_sieved(args, fmt):
    hp = variance.HypothesisParams(delta=args.delta, hbar=args.hbar)
    return _report(variance.sieved_variance(args.X, args.K, hp,
                                            nu_star(args.R)), fmt)


def _cmd_moments(args, fmt):
    return _report(variance.nonarch_moment_check(args.K, args.d), fmt)


def _cmd_scan_exceptional(args, fmt):
    rep = series.exceptional_scan(args.A, args.K, args.eta,
                                  bin_width=args.bin_width)
    if fmt == "csv":
        rows = zip(rep.hist_edges[:-1].tolist(), rep.hist_edges[1:].tolist(),
                   rep.hist_counts.tolist())
        return _csv_text(("s_lo", "s_hi", "count"), rows)
    return _json_text(rep)


def _cmd_scan_primes(args, fmt):
    return _report(lattice.prime_demo(args.A), fmt)


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


def _verify_local(max_modulus: int, seed: int) -> list[str]:
    lines = [_verify_modulus(m) for m in range(1, max_modulus + 1)]
    # multiplicativity spot checks on random coprime factorizations; the
    # stdlib generator, since numpy.random would load OpenSSL for 20 draws
    rng = random.Random(seed)
    checked = 0
    for _ in range(20):
        n1 = rng.randrange(2, max(3, max_modulus // 2))
        n2 = rng.randrange(2, max(3, max_modulus // 2))
        if math.gcd(n1, n2) != 1 or n1 * n2 > 4096:
            continue
        a = rng.randrange(n1 * n2)
        lhs = int(expsums.t_single(a, n1 * n2))
        rhs = int(expsums.t_single(a % n1, n1)) * int(expsums.t_single(a % n2, n2))
        _require(lhs == rhs, f"T_{a}({n1}*{n2}) not multiplicative")
        checked += 1
    if checked:  # below max_modulus 8 every draw is (2, 2)
        lines.append("ok multiplicativity spot checks")
    # the cube map is a bijection mod 2 and mod 3, so T_a vanishes there
    vanishing = [m for m in (2, 3) if m <= max_modulus]
    for m in vanishing:
        _require(not np.any(expsums.t_full(m)), f"T_a({m}) != 0")
    if vanishing:
        lines.append("ok vanishing at " + " and ".join(map(str, vanishing)))
    return lines


def _verify_moments(max_k: int) -> list[str]:
    lines = []
    for d in range(1, 5):
        # every level K <= max_k from one pass; raises CheckFailed when a
        # regrouping identity or tail bound fails
        for rep in variance.moment_check_levels(range(1, min(max_k, 48) + 1), d):
            lines.append(f"ok moments K={rep.K} d={d}")
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


def _cmd_verify(args, fmt):
    _check_int("--max-modulus", args.max_modulus, 1, expsums.MAX_MODULUS)
    _check_int("--seed", args.seed, 0)
    lines: list[str] = []
    if args.suite in ("local", "all"):
        lines += _verify_local(args.max_modulus, args.seed)
    if args.suite in ("moments", "all"):
        lines += _verify_moments(min(args.max_modulus, 12))
    if args.suite in ("lattice", "all"):
        lines += _verify_lattice()
    lines.append(f"verify {args.suite}: {len(lines)} checks passed")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# the flag tables: the one declaration of every subcommand and flag

REQUIRED = object()  # the default of a flag that must be given

# a flag is (name, type, default) or (name, choices, default)
_GLOBAL_FLAGS = (  # with their help text
    ("cache_dir", str, None, "directory that keeps the S1 table between runs"),
    ("output", str, None, "output path, default stdout"),
    ("format", ("csv", "json", "text"), None,
     "text for verify, csv or json for the rest"),
    ("threads", int, 1, "accepted and validated (>= 1); every command runs "
                        "in one thread"),
)


_R = ("R", float, 2.0)  # the nu_star(R) weight of every weighted subcommand
# each subcommand: (handler, the formats it prints with its default first,
# help text, flags)
_COMMANDS = {
    "expsum": (_cmd_expsum, ("csv", "json"), "complete sum T_a(n)", (
        ("modulus", int, REQUIRED), ("a", int, None))),
    "splus": (_cmd_splus, ("json", "csv"), "twisted diagonal sum S+_0(n; d)",
              (("n", int, REQUIRED), ("d", int, 1))),
    "series": (_cmd_series, ("csv", "json"), "truncated series s_a(K), M_a(K)",
               (("K", int, REQUIRED), ("a_lo", int, 0), ("a_hi", int, REQUIRED),
                ("mode", ("double", "exact"), "double"))),
    "gamma": (_cmd_gamma, ("json", "csv"),
              "local factor gamma_p(a) or its product",
              (("a", int, REQUIRED), ("p", int, None), ("p_max", int, 1000))),
    "density": (_cmd_density, ("csv", "json"), "archimedean density table",
                (_R, ("grid", int, 512))),
    "count": (_cmd_count, ("csv", "json"), "weighted lattice counts N_w(a; X)",
              (("X", int, REQUIRED), _R)),
    "variance": (_cmd_variance, ("json", "csv"),
                 "K-approximate variance decomposition",
                 (("X", int, REQUIRED), ("K", int, REQUIRED), ("d", int, 1),
                  _R)),
    "sieved": (_cmd_sieved, ("json", "csv"),
               "variance with small-prime sieve filter",
               (("X", int, REQUIRED), ("K", int, REQUIRED),
                ("hbar", float, REQUIRED), ("delta", float, 0.1), _R)),
    "verify": (_cmd_verify, ("text",), "exact identity suites", (
        ("suite", ("local", "moments", "lattice", "all"), "local"),
        ("max_modulus", int, 50), ("seed", int, 0))),
    "scan-exceptional": (_cmd_scan_exceptional, ("json", "csv"),
                         "histogram of s_a(K) near 0",
                         (("A", int, REQUIRED), ("K", int, REQUIRED),
                          ("eta", float, REQUIRED), ("bin_width", float, 0.25))),
    "scan-primes": (_cmd_scan_primes, ("json", "csv"),
                    "r_3 statistics over primes up to A", (("A", int, REQUIRED),)),
    "moments": (_cmd_moments, ("json", "csv"),
                "exact truncated-moment regrouping",
                (("K", int, REQUIRED), ("d", int, 1))),
}


def _add_flag(parser, name, kind, default, help=None):
    opts = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
    if default is REQUIRED:
        opts["required"] = True
    else:
        opts["default"] = default
    parser.add_argument("--" + name.replace("_", "-"), dest=name, help=help,
                        **opts)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    # global flags are accepted both before and after the subcommand; the
    # shared parent uses SUPPRESS so a subparser never clobbers a value that
    # was given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    for name, kind, _default, help_text in _GLOBAL_FLAGS:
        _add_flag(common, name, kind, argparse.SUPPRESS, help_text)
    ap = _Parser(prog="cubesums", parents=[common],
                 description="local and global statistics of x^3+y^3+z^3 = a")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for command, (_handler, _formats, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name, kind, default in flags:
            _add_flag(p, name, kind, default)
    return ap


def _parse(argv) -> argparse.Namespace:
    """Every flag's value: the command line, else its table default."""
    args = _build_parser().parse_args(argv)
    for name, _kind, default, _help in _GLOBAL_FLAGS:
        vars(args).setdefault(name, default)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        if args.cache_dir is not None:
            cache.configure(args.cache_dir)
        _check_int("--threads", args.threads)
        handler, formats, _help, _flags = _COMMANDS[args.subcommand]
        fmt = args.format or formats[0]
        if fmt not in formats:
            raise CLIError(f"{args.subcommand} prints "
                           f"{' or '.join(formats)}, not {fmt!r}")
        _check_output(args.output)
        _write(handler(args, fmt), args.output)
    except (CLIError, ValueError) as exc:
        print(f"cubesums: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the backstop for sizes that pass their bounds but not the machine
        detail = f" ({exc})" if str(exc) else ""
        print(f"cubesums: out of memory{detail}", file=sys.stderr)
        return 1
    except CheckFailed as exc:
        print(f"cubesums: FAIL {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
