"""Disk store for the S1 surface table, the one artifact worth persisting.

One file, ``s1_table.bin``: magic ``CBS1``, a uint32 format version, the
SHA-256 of the key and of the payload, then the payload: the node values and
the worst validation error as little-endian float64.  A file whose size,
header, key, checksum or probed nodes do not match reads as missing; writes
go through a temp file and ``os.replace`` and are skipped when they fail.

``hashlib`` is imported on the first read or write of the store, not with
this module, so a process that never touches the store does not load
OpenSSL's libcrypto.
"""
from __future__ import annotations

import os
import struct
import tempfile
from contextlib import suppress
from pathlib import Path

import numpy as np

MAGIC, VERSION = b"CBS1", 1
_HEADER = struct.Struct("<4sI32s32s")

_directory = os.environ.get("CUBESUMS_CACHE_DIR") or None


def configure(directory: str | os.PathLike | None) -> None:
    """Point the store at a directory (None disables it)."""
    global _directory
    _directory = directory or None


def s1_path() -> Path | None:
    """Where the S1 table is stored, or None when nothing is persisted."""
    return Path(_directory) / "s1_table.bin" if _directory else None


def _header(key: bytes, payload: bytes) -> bytes:
    import hashlib  # loads OpenSSL's libcrypto, so only when the store is used

    return _HEADER.pack(MAGIC, VERSION, hashlib.sha256(key).digest(),
                        hashlib.sha256(payload).digest())


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
