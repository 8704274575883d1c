"""Disk store for the S1 surface table, the one artifact worth persisting.

One file, ``s1_table.bin``: magic ``CBS1``, a uint32 format version, a
uint32 CRC-32 of the key and payload, then the payload: the node values and
the worst validation error as little-endian float64.  A file whose size,
header, key, checksum or probed nodes do not match reads as missing; writes
go through a temp file and ``os.replace`` and are skipped when they fail.
"""
from __future__ import annotations

import os
import struct
import tempfile
import zlib
from contextlib import suppress
from pathlib import Path

import numpy as np

MAGIC, VERSION = b"CBS1", 2
_HEADER = struct.Struct("<4sII")

_directory = None


def configure(directory: str | os.PathLike | None) -> None:
    """Point the store at a directory (None, the default, disables it)."""
    global _directory
    _directory = directory or None


def s1_path() -> Path | None:
    """Where the S1 table is stored, or None when nothing is persisted."""
    return Path(_directory) / "s1_table.bin" if _directory else None


def _header(key: bytes, payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, zlib.crc32(key + payload))


def encode(key: bytes, values: np.ndarray, worst: float) -> bytes:
    payload = np.append(values, worst).astype("<f8").tobytes()
    return _header(key, payload) + payload


def load(path: Path | None, key: bytes, n: int, check) -> tuple[np.ndarray, float] | None:
    """The n stored values and the validation error, or None when the file
    is missing or rejected; check(values) must accept the values too."""
    try:
        raw = path.read_bytes() if path is not None else b""
    except OSError:
        return None
    head, payload = raw[:_HEADER.size], raw[_HEADER.size:]
    if len(payload) != 8 * (n + 1) or head != _header(key, payload):
        return None
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return (arr[:n], float(arr[n])) if check(arr[:n]) else None


def save(path: Path | None, key: bytes, values: np.ndarray, worst: float) -> bool:
    """Write the table atomically; False, and no file, when that fails."""
    if path is None:
        return False
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(encode(key, values, worst))
        os.replace(tmp, path)
        return True
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        return False
