"""CLI plumbing: exit codes, formats, config merge, cache dir, determinism."""

import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cubesums
from cubesums import cache, expsums, lattice
from cubesums.cli import (_COMMANDS, _GLOBAL_FLAGS, _build_parser, _resolve,
                          load_config, main)
from cubesums.densities import density_table
from cubesums.weights import nu_star


def run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr()


def test_expsum_all_csv(capsys):
    rc, out = run(["expsum", "--modulus", "7"], capsys)
    assert rc == 0
    assert out.out == ("a,T\n0,42\n1,287\n2,-154\n3,-154\n"
                       "4,-154\n5,-154\n6,287\n")


def test_expsum_single_value(capsys):
    rc, out = run(["expsum", "--modulus", "7", "--a", "1"], capsys)
    assert rc == 0
    assert out.out.splitlines() == ["a,T", "1,287"]


def test_splus_json(capsys):
    rc, out = run(["splus", "--n", "4", "--d", "2"], capsys)
    assert rc == 0
    rep = json.loads(out.out)
    assert rep == {"n": 4, "d": 2, "s_plus": 128}


def test_series_exact_csv(capsys):
    rc, out = run(["series", "--K", "4", "--a-lo", "0", "--a-hi", "4",
                   "--mode", "exact"], capsys)
    assert rc == 0
    assert out.out.splitlines() == [
        "a,s,M", "0,5/4,1", "1,1,1", "2,3/4,1", "3,1,1", "4,5/4,1"]


def test_gamma_factor_json(capsys):
    rc, out = run(["gamma", "--a", "2", "--p", "7"], capsys)
    assert rc == 0
    rep = json.loads(out.out)
    assert rep["sigma"] == "27/49"
    assert rep["mollifier"] == "71/49"
    assert rep["value"] == "1917/2401"


def test_moments_json_frozen(capsys):
    rc, out = run(["moments", "--K", "4", "--d", "2"], capsys)
    assert rc == 0
    rep = json.loads(out.out)
    assert rep["pure_lhs"] == rep["mixed_lhs"] == rep["head"] == "17/32"
    assert rep["n_pairs_vanished"] == 10


def test_density_csv_rows(capsys):
    rc, out = run(["density", "--R", "2"], capsys)
    assert rc == 0
    table = density_table(nu_star(2.0))
    lines = out.out.splitlines()
    assert lines[0] == "a_tilde,sigma"
    assert len(lines) == 1 + len(table.grid)
    g0, v0 = lines[1].split(",")
    assert float(g0) == table.grid[0] and float(v0) == table.values[0]


def test_count_small_csv(capsys):
    rc, out = run(["count", "--X", "1"], capsys)
    assert rc == 0
    lines = out.out.splitlines()
    assert lines[0] == "a,N"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["-2", "-1", "1", "2"]


def test_verify_local_exit_zero(capsys):
    rc, out = run(["verify", "--suite", "local", "--max-modulus", "20"],
                  capsys)
    assert rc == 0
    assert "checks passed" in out.out


def test_verify_unknown_suite(capsys):
    rc, out = run(["verify", "--suite", "nope"], capsys)
    assert rc == 1  # choices violation goes through the validation path


def _python(*args, timeout=120):
    """Run a fresh interpreter on the package under test."""
    src = str(Path(cubesums.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("CUBESUMS_CACHE_DIR", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _readme_examples():
    """The cubesums lines of the README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines()
            if line.startswith("cubesums ")]


def test_readme_examples_parse():
    # every example names only declared flags and gives every required one;
    # nothing runs
    shown = set()
    for line in _readme_examples():
        _program, *argv = shlex.split(line, comments=True)
        args = _build_parser().parse_args(argv)
        _resolve(args, {}, _COMMANDS[args.subcommand][3])
        shown.add(args.subcommand)
    assert shown == set(_COMMANDS)


def test_validation_errors(capsys):
    assert run(["expsum"], capsys)[0] == 1  # missing --modulus
    assert run(["nonsense"], capsys)[0] == 1  # unknown subcommand
    assert run([], capsys)[0] == 1  # no subcommand
    assert run(["moments", "--K", "49"], capsys)[0] == 1  # out of range
    for flags in (["--K", "0"], ["--K", "4", "--d", "0"]):
        rc, out = run(["moments"] + flags, capsys)
        assert rc == 1, flags
        assert "need 1 <= K <= 48 and 1 <= d <= 8" in out.err, flags
    # an empty product below 2; hours of work above the modulus limit
    for p_max in ("0", "1", "-5", str(expsums.MAX_MODULUS + 1)):
        rc, out = run(["gamma", "--a", "2", "--p-max", p_max], capsys)
        assert rc == 1, p_max
        assert out.err == (f"cubesums: p_max must lie in "
                           f"[2, {expsums.MAX_MODULUS}], got {p_max}\n")
    assert run(["expsum", "--modulus", "7", "--threads", "0"], capsys)[0] == 1
    for p in ("0", "4", "-7"):
        rc, out = run(["gamma", "--a", "2", "--p", p], capsys)
        assert rc == 1 and "p must be a prime" in out.err
    for m in ("0", "-2"):  # no modulus to check
        rc, out = run(["verify", "--max-modulus", m], capsys)
        assert rc == 1 and "--max-modulus must be >= 1" in out.err
    for flags, message in (
            (["--eta", "nan"], "eta must be a finite number >= 0"),
            (["--eta", "inf"], "eta must be a finite number >= 0"),
            (["--eta", "-1"], "eta must be a finite number >= 0"),
            (["--bin-width", "0"], "bin width must be a finite number > 0"),
            (["--bin-width", "-1"], "bin width must be a finite number > 0"),
            (["--bin-width", "nan"], "bin width must be a finite number > 0"),
            (["--bin-width", "inf"], "bin width must be a finite number > 0"),
            (["--bin-width", "1e-320"], "more than 1000000 bins")):
        rc, out = run(["scan-exceptional", "--A", "50", "--K", "4", "--eta",
                       "0.1"] + flags, capsys)
        assert rc == 1 and message in out.err, flags
    # a grid too coarse to pass validation; in process, because a fresh
    # interpreter would rebuild the S1 spline
    for grid in ("64", "96", "128"):
        rc, out = run(["density", "--grid", grid], capsys)
        assert rc == 1, grid
        assert "density table failed validation" in out.err
        assert "Traceback" not in out.err
        assert "np.float64" not in out.err  # a plain float, not a numpy repr
    # the grid asked for is the grid validated: 300 points fail, and no
    # finer table is printed in their place
    rc, out = run(["density", "--grid", "300"], capsys)
    assert rc == 1 and out.out == ""
    assert out.err.startswith(
        "cubesums: density table failed validation on 300 points: ")
    # sizes that would reach an allocation of many GiB are refused first
    for argv, message in (
            (["series", "--K", "1", "--a-hi", "3000000000"],
             "window of 3000000001 values exceeds the limit 134217728"),
            (["scan-exceptional", "--A", "2000000000", "--K", "1", "--eta",
              "0.1"], "window of 4000000001 values exceeds the limit"),
            (["density", "--grid", "100000000"], "grid_size must be <= 65536")):
        rc, out = run(argv, capsys)
        assert rc == 1 and message in out.err, argv
    # sigma_p_a refuses p = 1 before v_p, which raises for every p < 2
    rc, out = run(["gamma", "--a", "2", "--p", "1"], capsys)
    assert rc == 1
    assert out.err == "cubesums: p must be a prime, got p=1\n"


def test_sieved_checks_K_before_any_work(monkeypatch, capsys):
    from cubesums import densities

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before K was checked")

    monkeypatch.setattr(lattice, "_iter_orbits", unreachable)
    monkeypatch.setattr(densities, "_s1_spline", unreachable)
    for K in ("0", "-3"):
        rc, out = run(["sieved", "--X", "20", "--K", K, "--hbar", "0.045"],
                      capsys)
        assert rc == 1 and out.out == ""
        assert out.err == "cubesums: need K >= 1\n"


# each valued flag of every subcommand, with a value out of range (where one
# exists) and one of the wrong type; the other flags stay valid
_BAD_VALUE_BASE = {
    "expsum": {"modulus": "7"},
    "splus": {"n": "4"},
    "gamma": {"a": "2"},
    "scan-primes": {"A": "300"},
    "series": {"K": "4", "a_hi": "3"},
    "scan-exceptional": {"A": "50", "K": "4", "eta": "0.1"},
    "moments": {"K": "4"},
    "verify": {"suite": "moments"},
    "density": {},
    "count": {"X": "12"},
    "variance": {"X": "12", "K": "3"},
    "sieved": {"X": "12", "K": "3", "hbar": "0.045"},
}
_PAST_MODULI = str(expsums.MAX_MODULUS + 1)  # no T-vector of this modulus
_BAD_R = ("1", "nan", "x")  # nu_star needs a finite R >= 2
_BAD_VALUES = {
    "expsum": {"modulus": ("0", _PAST_MODULI, "abc"), "a": ("x", "1.5")},
    "splus": {"n": ("0", _PAST_MODULI, "x"), "d": ("0", "x")},
    "gamma": {"a": ("0", "x"), "p": ("4", _PAST_MODULI, "x"),
              "p_max": ("1", _PAST_MODULI, "x")},
    "scan-primes": {"A": ("1", "1000001", "1e3")},
    "series": {"K": ("0", _PAST_MODULI, "4.5"), "a_lo": ("4", "x"),
               "a_hi": ("3000000000", "3e3"), "mode": ("float32", "1")},
    "scan-exceptional": {"A": ("-1", "1e3"), "K": ("0", _PAST_MODULI, "four"),
                         "eta": ("-1", "small"), "bin_width": ("0", "wide")},
    "moments": {"K": ("49", "4.0"), "d": ("9", "two")},
    "verify": {"suite": ("everything", "1"),
               "max_modulus": ("0", _PAST_MODULI, "ten"), "seed": ("-1", "x")},
    "density": {"R": _BAD_R, "grid": ("63", "65537", "x")},
    "count": {"X": ("0", "5000", "x"), "R": _BAD_R},
    "variance": {"X": ("0", "x"), "K": ("0", _PAST_MODULI, "x"),
                 "d": ("0", "49", "x"), "R": _BAD_R},
    "sieved": {"X": ("1", "x"), "K": ("0", _PAST_MODULI, "x"),
               "hbar": ("0", "0.5", "x"), "delta": ("0", "x"), "R": _BAD_R},
}
# the global flags, given to count, which would walk the lattice; any
# cache_dir is usable, since one that cannot be written only costs the
# S1 rebuild (test_unusable_cache_dir_keeps_output)
_BAD_GLOBAL_VALUES = {
    "config": (os.path.join(os.devnull, "x.cfg"),),
    "output": (os.path.join(os.devnull, "x.csv"), os.curdir),
    "format": ("text", "xml"),
    "threads": ("0", "x"),
}
_BAD_VALUE_CASES = [(command, name, value)
                    for command, flags in _BAD_VALUES.items()
                    for name, values in flags.items() for value in values]
_BAD_VALUE_CASES += [("count", name, value)
                     for name, values in _BAD_GLOBAL_VALUES.items()
                     for value in values]


def test_bad_value_cases_cover_the_table():
    assert set(_BAD_VALUES) == set(_COMMANDS) == set(_BAD_VALUE_BASE)
    for command, (_handler, _formats, _help, flags) in _COMMANDS.items():
        assert set(_BAD_VALUES[command]) == {name for name, *_ in flags}, \
            command
    assert set(_BAD_GLOBAL_VALUES) | {"cache_dir"} == {
        name for name, *_rest in _GLOBAL_FLAGS}


@pytest.mark.parametrize("command, name, value", _BAD_VALUE_CASES,
                         ids=[f"{c}-{n}-{v}" for c, n, v in _BAD_VALUE_CASES])
def test_bad_value_exits_one_before_any_work(command, name, value,
                                             monkeypatch, capsys):
    from cubesums import densities, series, variance

    def unreachable(*args):
        raise AssertionError(f"work reached before the check: {args}")

    monkeypatch.setattr(expsums, "point_count_vector", unreachable)
    # the lattice walk and the S1 table; count_weighted's own bound checks
    # run before its walk
    monkeypatch.setattr(lattice, "_iter_orbits", unreachable)
    monkeypatch.setattr(densities, "_s1_spline", unreachable)
    # expsum checks its modulus inside t_full, before any point count
    if command != "expsum":
        for module in (expsums, series, variance):
            monkeypatch.setattr(module, "t_full", unreachable)
    flags = dict(_BAD_VALUE_BASE[command], **{name: value})
    argv = [command] + [x for k, v in flags.items()
                        for x in ("--" + k.replace("_", "-"), v)]
    rc, out = run(argv, capsys)
    assert rc == 1 and out.out == ""
    # the message is all of stderr: one line, no argparse usage above it
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cubesums: ")
    assert out.err == lines[0] + "\n"


def test_negative_seed_is_refused_by_name(capsys):
    # random.Random takes abs(seed), so -1 would silently repeat seed 1's
    # draws
    rc, out = run(["verify", "--suite", "moments", "--seed", "-1"], capsys)
    assert rc == 1 and out.out == ""
    assert out.err == "cubesums: --seed must be >= 0, got -1\n"
    # no other command reads a seed, so none takes one
    for argv in (["expsum", "--modulus", "7", "--seed", "1"],
                 ["--seed", "1", "verify", "--suite", "moments"]):
        rc, out = run(argv, capsys)
        assert rc == 1 and out.out == "", argv
        assert len(out.err.splitlines()) == 1, argv
        assert out.err.startswith("cubesums: "), argv


def test_memory_error_exits_one(monkeypatch, capsys):
    from cubesums import series

    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(series, "series_window", too_big)
    rc, out = run(["series", "--K", "4", "--a-lo", "0", "--a-hi", "3"],
                  capsys)
    assert rc == 1 and out.out == ""
    assert out.err == ("cubesums: out of memory "
                       "(Unable to allocate 1.00 GiB for an array)\n")


def test_unwritable_output_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc, out = run(["count", "--X", "5", "--output", str(target)], capsys)
    assert rc == 1
    assert out.err.startswith("cubesums: cannot write output: ")
    assert "Traceback" not in out.err
    assert not target.exists()


@pytest.fixture(scope="module")
def s1_store(tmp_path_factory):
    """A store directory that holds the suite's in-process S1 table."""
    from cubesums import densities

    _spline, vals, worst = densities._s1_spline()
    directory = tmp_path_factory.mktemp("s1_store")
    cache.configure(directory)
    assert cache.save(cache.s1_path(), densities._S1_KEY, vals, worst)
    cache.configure(None)
    return directory


# every import of scipy raises; the spline commands print their golden bytes,
# less wall_time, from the store sys.argv[1]
_SCIPY_BLOCKED = (
    "import contextlib, io, re, shlex, sys\n"
    "sys.modules['scipy'] = None\n"
    "from cubesums.cli import main\n"
    "mask = lambda text: re.sub(r'(\"wall_time\": )\\S+', r'\\1-', text)\n"
    "for path in sys.argv[2:]:\n"
    "    line, want = open(path).read().split('\\n', 1)\n"
    "    argv = shlex.split(line)[2:] + ['--cache-dir', sys.argv[1]]\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        assert main(argv) == 0, argv\n"
    "    assert mask(out.getvalue()) == mask(want), path\n")


@pytest.mark.parametrize("code", [
    "import cubesums.cli, sys; sys.exit('scipy' in sys.modules)",
    "import sys; from cubesums.cli import main; "
    "sys.exit(main(['gamma', '--a', '2', '--p', '7']) or 'scipy' in sys.modules)",
    pytest.param(_SCIPY_BLOCKED, id="spline-commands-with-scipy-blocked"),
])
def test_cli_leaves_scipy_unloaded(code, s1_store):
    # the package needs numpy alone; scipy is the tests' spline oracle
    golden = Path(__file__).parent / "golden"
    proc = _python("-c", code, str(s1_store), str(golden / "density-json.txt"),
                   str(golden / "variance-json.txt"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_nu_loads_neither_numpy_random_nor_openssl():
    # importing numpy.random pulls in secrets -> hmac -> _hashlib, and so
    # OpenSSL's libcrypto (about 6 MB of RSS); a count, which draws no
    # random number and reads no store, loads neither, and the store loads
    # hashlib on its first use.  A fresh interpreter, since the suite has
    # loaded both long before.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from cubesums import cache\n"
        "from cubesums.lattice import count_weighted\n"
        "from cubesums.weights import nu_star\n"
        "count_weighted(8, nu_star(2))\n"
        "pts = np.array([[14.49, -12.6, -10.14], [4.81, -6.82, 5.91],\n"
        "                [-12.88, -11.29, 15.29]])\n"
        "assert nu_star(3.0).evaluate(pts).min() > 0.0\n"
        "print(sorted({'numpy.random', '_hashlib', 'hashlib'}"
        " & set(sys.modules)))\n"
        "cache.encode(b'key', np.zeros(2), 0.0)\n"
        "print('hashlib' in sys.modules)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"


# one golden command line of every subcommand that draws nothing at random;
# density, variance and sieved print their validation draws
_DRAWLESS = ("count", "expsum", "gamma", "moments", "scan-exceptional",
             "scan-primes", "series", "splus")


def test_drawless_commands_load_neither_numpy_random_nor_openssl():
    golden = Path(__file__).parent / "golden"
    argvs = [shlex.split(path.read_text().split("\n", 1)[0])[2:]
             for path in sorted(golden.glob("*-csv.txt"))
             if path.stem.rsplit("-", 1)[0] in _DRAWLESS]
    assert {argv[0] for argv in argvs} == set(_DRAWLESS)
    argvs.append(["verify", "--suite", "all", "--max-modulus", "12",
                  "--seed", "3"])
    code = (
        "import contextlib, io, sys\n"
        "from cubesums.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted({'numpy.random', '_hashlib', 'hashlib'}"
        " & set(sys.modules)))\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# 1e308 is finite, but the support bound 11 * R is not
@pytest.mark.parametrize("R", ["inf", "nan", "1e308"])
@pytest.mark.parametrize("argv", [
    ["count", "--X", "2"], ["density"], ["variance", "--X", "4", "--K", "4"],
    ["sieved", "--X", "4", "--K", "4", "--hbar", "0.04"]])
def test_non_finite_R_rejected(argv, R, capsys):
    rc, out = run(argv + ["--R", R], capsys)
    assert rc == 1
    assert "R must be a finite number >= 2" in out.err
    assert "Traceback" not in out.err


def test_count_bound_message_is_short(capsys):
    # a valid R whose bound B = ceil(11 R) has 309 digits
    rc, out = run(["count", "--X", "1", "--R", "1.6e307"], capsys)
    assert rc == 1
    assert "Traceback" not in out.err
    assert "B*X = 1.76e+308 > 100000" in out.err
    assert len(out.err.strip()) < 120


def test_config_merge(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nmodulus = 7\nformat = json\n")
    rc, out = run(["--config", str(cfg), "expsum"], capsys)
    assert rc == 0
    assert json.loads(out.out)["T"]["0"] == 42
    # explicit flags override the file
    rc, out = run(["--config", str(cfg), "expsum", "--modulus", "2",
                   "--format", "csv"], capsys)
    assert rc == 0
    assert out.out.splitlines() == ["a,T", "0,0", "1,0"]


def test_format_must_be_one_the_command_prints(tmp_path, capsys):
    cfg = tmp_path / "text.cfg"
    cfg.write_text("format = text\n")
    for argv, formats in ((["expsum", "--modulus", "7"], "csv or json"),
                          (["splus", "--n", "4"], "json or csv")):
        rc, out = run(["--config", str(cfg)] + argv, capsys)
        assert rc == 1 and out.out == "", argv
        assert out.err == f"cubesums: {argv[0]} prints {formats}, not 'text'\n"
    rc, out = run(["verify", "--max-modulus", "2", "--format", "json"],
                  capsys)
    assert rc == 1 and out.out == ""
    assert out.err == "cubesums: verify prints text, not 'json'\n"
    rc, out = run(["--config", str(cfg), "verify", "--max-modulus", "2"],
                  capsys)
    assert rc == 0 and "checks passed" in out.out


# one run of each fast subcommand, every valued flag set; the resolver test
# moves one flag at a time into a config file
_FLAG_CASES = (
    ("expsum", {"modulus": "7", "a": "3", "format": "json"}),
    ("splus", {"n": "4", "d": "2", "format": "csv"}),
    ("series", {"K": "4", "a_lo": "-2", "a_hi": "3", "mode": "exact"}),
    ("gamma", {"a": "5", "p_max": "50"}),
    ("gamma", {"a": "2", "p": "7"}),
    ("moments", {"K": "4", "d": "2"}),
    ("count", {"X": "3", "R": "2.5"}),
    ("scan-primes", {"A": "300"}),
    ("scan-exceptional", {"A": "300", "K": "4", "eta": "0.2",
                          "bin_width": "0.5"}),
    ("verify", {"suite": "local", "max_modulus": "6", "seed": "3",
                "threads": "2"}),
)


def test_flag_cases_cover_the_table():
    for command, (_handler, _formats, _help, flags) in _COMMANDS.items():
        cases = [set(v) for c, v in _FLAG_CASES if c == command]
        if cases:
            assert set().union(*cases) >= {name for name, *_ in flags}, \
                command


_CONFIG_CASES = [(command, flags, name) for command, flags in _FLAG_CASES
                 for name in flags]


@pytest.mark.parametrize("command, flags, name", _CONFIG_CASES,
                         ids=[f"{c}-{name}" for c, _, name in _CONFIG_CASES])
def test_config_value_matches_flag(command, flags, name, tmp_path, capsys):
    def argv(values):
        return [command] + [x for k, v in values.items()
                            for x in ("--" + k.replace("_", "-"), v)]

    rc, by_flag = run(argv(flags), capsys)
    assert rc == 0, by_flag.err
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{name} = {flags[name]}\n")
    rest = {k: v for k, v in flags.items() if k != name}
    rc, by_config = run(["--config", str(cfg)] + argv(rest), capsys)
    assert rc == 0, by_config.err
    assert by_config.out == by_flag.out


@pytest.mark.parametrize("line, argv", [
    ("mode = bogus", ["series", "--K", "4", "--a-hi", "3"]),
    ("suite = nope", ["verify", "--max-modulus", "2"]),
    ("K = four", ["moments"]),
])
def test_bad_config_value_names_key(line, argv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc, out = run(["--config", str(cfg)] + argv, capsys)
    key, value = (t.strip() for t in line.split("="))
    assert rc == 1 and out.out == ""
    assert out.err == f"cubesums: bad config value for {key}: {value!r}\n"


def test_config_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(Exception):
        load_config(str(cfg))
    assert main(["--config", str(cfg), "expsum", "--modulus", "7"]) == 1


def test_global_flags_after_subcommand(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    rc, _ = run(["expsum", "--modulus", "7", "--output", str(out_path)],
                capsys)
    assert rc == 0
    assert out_path.read_text().startswith("a,T\n0,42\n")


def test_parser_built_once_per_process(capsys):
    from cubesums import cli

    cli._build_parser.cache_clear()
    rc, out = run(["expsum", "--modulus", "2", "--format", "json"], capsys)
    assert rc == 0 and json.loads(out.out) == {"modulus": 2,
                                               "T": {"0": 0, "1": 0}}
    # the shared parser keeps no value of the call before
    rc, out = run(["expsum", "--modulus", "2"], capsys)
    assert rc == 0 and out.out == "a,T\n0,0\n1,0\n"
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cache_dir_env_beats_flag(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env_cache"
    flag_dir = tmp_path / "flag_cache"
    monkeypatch.setenv("CUBESUMS_CACHE_DIR", str(env_dir))
    rc, _ = run(["expsum", "--modulus", "11", "--cache-dir", str(flag_dir)],
                capsys)
    assert rc == 0
    assert cache.s1_path() == env_dir / "s1_table.bin"


def test_cache_dir_flag_used_without_env(tmp_path, capsys):
    flag_dir = tmp_path / "flag_cache"
    rc, _ = run(["expsum", "--modulus", "13", "--cache-dir", str(flag_dir)],
                capsys)
    assert rc == 0
    assert cache.s1_path() == flag_dir / "s1_table.bin"
    # T-vectors are recomputed, never written
    assert not flag_dir.exists()


def test_cache_dir_from_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"cache_dir = {tmp_path / 'cfg_cache'}\n")
    rc, _ = run(["expsum", "--modulus", "7", "--config", str(cfg)], capsys)
    assert rc == 0
    assert cache.s1_path() == tmp_path / "cfg_cache" / "s1_table.bin"


def test_unusable_cache_dir_keeps_output(tmp_path, capsys):
    # the cache dir's parent is a regular file, so no directory can be made
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = ["expsum", "--modulus", "343", "--a", "1"]
    rc, plain = run(argv, capsys)
    assert rc == 0
    rc, out = run(argv + ["--cache-dir", str(blocker / "cache")], capsys)
    assert rc == 0
    assert out.out == plain.out and out.err == ""


def test_variance_rejects_x_zero_before_warning(capsys):
    # d = 49 is past variance's bound d <= 48, and K*d would warn; both are
    # refused before any table is built
    for argv, message in (
            (["--X", "0", "--K", "1", "--d", "1"], "X must be a positive integer"),
            (["--X", "30", "--K", "1", "--d", "49"], "need 1 <= d <= 48, got d=49")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out = run(["variance"] + argv, capsys)
        assert rc == 1
        assert message in out.err
        assert caught == []


@pytest.mark.parametrize("X", ["1", "0", "-3"])
def test_sieved_rejects_x_below_two(X, capsys):
    # the comparison term divides by log X; the check comes before any
    # table is built
    rc, out = run(["sieved", "--X", X, "--K", "1", "--hbar", "0.045"], capsys)
    assert rc == 1
    assert out.err == "cubesums: X must be an integer >= 2\n"


def test_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["moments", "--K", "8", "--d", "3", "--output"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # variance prints its own wall_time, the one field that differs
    reps = []
    for _ in range(2):
        rc, out = run(["variance", "--X", "8", "--K", "2", "--d", "1"], capsys)
        assert rc == 0
        reps.append(json.loads(out.out))
        assert reps[-1].pop("wall_time") >= 0.0
    assert reps[0] == reps[1]


def test_threads_do_not_change_output(capsys):
    rc1, out1 = run(["verify", "--suite", "moments", "--max-modulus", "6",
                     "--threads", "1"], capsys)
    rc3, out3 = run(["verify", "--suite", "moments", "--max-modulus", "6",
                     "--threads", "3"], capsys)
    assert rc1 == rc3 == 0
    assert out1.out == out3.out


def test_scan_exceptional_csv_header(capsys):
    rc, out = run(["scan-exceptional", "--A", "500", "--K", "4",
                   "--eta", "0.2", "--format", "csv"], capsys)
    assert rc == 0
    assert out.out.splitlines()[0] == "s_lo,s_hi,count"


_T_SINGLE = expsums.t_single


def _spot_checks(monkeypatch, capsys, max_modulus, seed, broken=None):
    """Run verify --suite local, recording every t_single call; t_single
    of the modulus `broken` is off by one."""
    calls = []

    def spy(a, n):
        calls.append((a, n))
        return _T_SINGLE(a, n) + (n == broken)

    monkeypatch.setattr(expsums, "t_single", spy)
    rc, out = run(["verify", "--suite", "local", "--max-modulus",
                   str(max_modulus), "--seed", str(seed)], capsys)
    return rc, out, calls


def test_multiplicativity_line_only_when_a_pair_ran(monkeypatch, capsys):
    # below 8 both factors are drawn from [2, 3), so every pair is (2, 2)
    rc, out, calls = _spot_checks(monkeypatch, capsys, 6, 3)
    assert rc == 0 and calls == []
    assert "multiplicativity" not in out.out
    assert out.out.endswith("verify local: 7 checks passed\n")
    rc, out, calls = _spot_checks(monkeypatch, capsys, 8, 3)
    assert rc == 0 and calls
    assert "ok multiplicativity spot checks\n" in out.out
    assert out.out.endswith("verify local: 10 checks passed\n")


def test_vanishing_line_names_only_the_moduli_checked(capsys):
    rc, out = run(["verify", "--max-modulus", "1"], capsys)
    assert rc == 0 and "vanishing" not in out.out
    assert out.out.endswith("ok modulus 1\nverify local: 1 checks passed\n")
    rc, out = run(["verify", "--max-modulus", "2"], capsys)
    assert rc == 0
    assert out.out.endswith("ok vanishing at 2\nverify local: 3 checks passed\n")


def test_spot_check_draws_repeat_for_a_seed(monkeypatch, capsys):
    draws = [_spot_checks(monkeypatch, capsys, 40, seed)[2]
             for seed in (1, 1, 2)]
    assert draws[0] and draws[0] == draws[1] != draws[2]


def test_spot_checks_catch_a_non_multiplicative_t(monkeypatch, capsys):
    _rc, _out, calls = _spot_checks(monkeypatch, capsys, 40, 3)
    (_a, n), *_ = calls  # the first call is T_a(n1 * n2)
    rc, out, _calls = _spot_checks(monkeypatch, capsys, 40, 3, broken=n)
    assert rc == 2 and out.out == ""
    assert out.err.startswith("cubesums: FAIL T_")
    assert out.err.endswith(" not multiplicative\n")


_BROKEN_COUNTS = """
import sys
import cubesums.expsums as E
from cubesums.cli import main
good = E.point_count_vector
def broken(m):
    v = good(m).copy()
    v[0] += 1
    return v
E.point_count_vector = broken
sys.exit(main(["verify", "--suite", "local", "--max-modulus", "8"]))
"""


def test_verify_fails_under_optimize_flag():
    # python -O strips assert statements; verify checks must still fire
    proc = _python("-O", "-c", _BROKEN_COUNTS)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "FAIL" in proc.stderr
