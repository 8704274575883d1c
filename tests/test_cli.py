"""CLI plumbing: exit codes, formats, config merge, cache dir, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubesums
from cubesums import expsums
from cubesums.cli import load_config, main


@pytest.fixture(autouse=True)
def _isolate_cache(monkeypatch):
    # keep CLI cache configuration from leaking into other tests
    monkeypatch.delenv("CUBESUMS_CACHE_DIR", raising=False)
    yield
    expsums.configure_cache(None)


def run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr()


def test_expsum_all_csv(capsys):
    rc, out = run(["expsum", "--modulus", "7", "--all"], capsys)
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


def test_validation_errors(capsys):
    assert run(["expsum"], capsys)[0] == 1  # missing --modulus
    assert run(["nonsense"], capsys)[0] == 1  # unknown subcommand
    assert run([], capsys)[0] == 1  # no subcommand
    assert run(["moments", "--K", "49"], capsys)[0] == 1  # out of range
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
    # a grid too coarse to pass validation after one refinement; in process,
    # because a fresh interpreter would rebuild the S1 spline
    for grid in ("64", "96", "128"):
        rc, out = run(["density", "--grid", grid], capsys)
        assert rc == 1, grid
        assert "density table failed validation after refinement" in out.err
        assert "Traceback" not in out.err
        assert "np.float64" not in out.err  # a plain float, not a numpy repr
    # v_p(n, 1) never terminates, so p = 1 runs in a process with a timeout
    proc = _python("-m", "cubesums.cli", "gamma", "--a", "2", "--p", "1",
                   timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr == "cubesums: p must be a prime, got p=1\n"


def test_unwritable_output_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc, out = run(["count", "--X", "5", "--output", str(target)], capsys)
    assert rc == 1
    assert out.err.startswith("cubesums: cannot write output: ")
    assert "Traceback" not in out.err
    assert not target.exists()


@pytest.mark.parametrize("code", [
    "import cubesums.cli, sys; sys.exit('scipy' in sys.modules)",
    "import sys; from cubesums.cli import main; "
    "sys.exit(main(['gamma', '--a', '2', '--p', '7']) or 'scipy' in sys.modules)",
])
def test_cli_leaves_scipy_unloaded(code):
    # scipy is imported only where a spline is built (densities)
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def test_config_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(Exception):
        load_config(str(cfg))
    assert main(["--config", str(cfg), "expsum", "--modulus", "7"]) == 1


def test_global_flags_after_subcommand(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    rc, _ = run(["expsum", "--modulus", "7", "--all",
                 "--output", str(out_path)], capsys)
    assert rc == 0
    assert out_path.read_text().startswith("a,T\n0,42\n")


def test_cache_dir_env_beats_flag(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env_cache"
    flag_dir = tmp_path / "flag_cache"
    monkeypatch.setenv("CUBESUMS_CACHE_DIR", str(env_dir))
    rc, _ = run(["expsum", "--modulus", "11", "--all",
                 "--cache-dir", str(flag_dir)], capsys)
    assert rc == 0
    assert (env_dir / "t_11_1.cbt").exists()
    assert not flag_dir.exists()


def test_cache_dir_flag_used_without_env(tmp_path, capsys):
    flag_dir = tmp_path / "flag_cache"
    rc, _ = run(["expsum", "--modulus", "13", "--all",
                 "--cache-dir", str(flag_dir)], capsys)
    assert rc == 0
    assert (flag_dir / "t_13_1.cbt").exists()


def test_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["moments", "--K", "8", "--d", "3", "--output"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


# record -> CSV output of three handlers, frozen byte for byte
_FROZEN_CSV = {
    ("gamma", "--a", "2", "--p", "7"):
        "a,mollifier,p,sigma,value\n2,71/49,7,27/49,1917/2401\n",
    ("moments", "--K", "4", "--d", "2"):
        "K,d,groups_checked,head,mixed_lhs,n_pairs_vanished,pure_lhs,"
        "tail_bound,tail_mixed,tail_pure\n4,2,2,17/32,17/32,10,17/32,1/16,0,0\n",
    ("scan-primes", "--A", "1000"):
        "A,fitted_constant,n_admissible_represented,n_primes,sum_r3,"
        "sum_r3_sq\n1000,0.98090124961546343,31,168,142,748\n",
}


@pytest.mark.parametrize("argv", sorted(_FROZEN_CSV))
def test_record_csv_frozen(argv, capsys):
    rc, out = run(list(argv) + ["--format", "csv"], capsys)
    assert rc == 0
    assert out.out == _FROZEN_CSV[argv]


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
