"""The S1 disk store: round trip, rejection of bad files, warm CLI run.

Every test reuses the S1 table that the process has already built (the
acceptance criteria build it first); none builds it a second time.
"""

from functools import partial

import numpy as np
import pytest

from cubesums import cache, densities
from cubesums.cli import main
from cubesums.densities import _S1_KEY, _S1_NODES, _S1_PROBES, _s1_probe

HALF = np.linspace(0.0, densities._S1_EDGE, _S1_NODES)


@pytest.fixture(scope="module")
def s1():
    _spline, vals, worst = densities._s1_spline()
    return vals, worst


def _load(path):
    return cache.load(path, _S1_KEY, _S1_NODES, partial(_s1_probe, HALF))


def test_s1_store_roundtrip(s1, tmp_path):
    vals, worst = s1
    path = tmp_path / "store" / "s1_table.bin"
    assert cache.save(path, _S1_KEY, vals, worst)
    raw = path.read_bytes()
    assert raw[:4] == cache.MAGIC and len(raw) == 72 + 8 * (_S1_NODES + 1)
    assert list(path.parent.iterdir()) == [path]  # no temp file left
    got, got_worst = _load(path)
    assert got.tobytes() == vals.tobytes() and got_worst == worst


def test_s1_store_rejects_bad_files(s1, tmp_path):
    vals, worst = s1
    good = cache.encode(_S1_KEY, vals, worst)
    flipped = bytearray(good)
    flipped[-100] ^= 0x01
    moved = vals.copy()
    i = _S1_PROBES[1]
    moved[i] = np.nextafter(moved[i], 1.0)
    files = {
        "truncated": good[:-8],
        "flipped payload byte": bytes(flipped),
        "wrong key": cache.encode(_S1_KEY + b"!", vals, worst),
        "probed value changed, checksum recomputed":
            cache.encode(_S1_KEY, moved, worst),
        "other format version": good[:4] + b"\x02" + good[5:],
    }
    for name, raw in files.items():
        path = tmp_path / "s1_table.bin"
        path.write_bytes(raw)
        assert _load(path) is None, name
    assert _load(tmp_path / "missing.bin") is None
    assert _load(None) is None


def test_s1_store_save_survives_unusable_directory(s1, tmp_path):
    vals, worst = s1
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert cache.save(blocker / "cache" / "s1_table.bin", _S1_KEY, vals,
                      worst) is False
    assert cache.save(None, _S1_KEY, vals, worst) is False
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_density_reads_seeded_store(s1, tmp_path, monkeypatch, capsys):
    vals, worst = s1
    assert main(["density", "--R", "2"]) == 0
    cold = capsys.readouterr().out
    (tmp_path / "s1_table.bin").write_bytes(cache.encode(_S1_KEY, vals, worst))
    calls = []
    real = densities.chi_surface
    monkeypatch.setattr(densities, "chi_surface",
                        lambda b, *a: calls.append(b) or real(b, *a))
    densities._s1_spline.cache_clear()
    densities._density_table.cache_clear()
    assert main(["density", "--R", "2", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold
    assert len(calls) == 2
    assert densities._s1_spline()[1].tobytes() == vals.tobytes()
