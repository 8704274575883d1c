"""Disk cache for prime-power exponential-sum vectors.

One small binary file per (p, l): magic ``CBT1`` then p, l, n = p^l as
unsigned 8-byte little-endian words, then n signed 64-bit little-endian
values.  Vectors with any entry outside int64 are never cached.  Writes go
through a temp file and ``os.replace`` so concurrent readers only ever see
complete files; corrupt or truncated files are ignored and recomputed.
"""
from __future__ import annotations

import logging
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

log = logging.getLogger("cubesums.cache")

MAGIC = b"CBT1"
_HEADER = struct.Struct("<4sQQQ")

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class TVectorCache:
    """Single-writer / multi-reader file cache; directory=None disables it."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory else None

    def _path(self, p: int, l: int) -> Path:
        return self.directory / f"t_{p}_{l}.cbt"

    def load(self, p: int, l: int) -> np.ndarray | None:
        if self.directory is None:
            return None
        path = self._path(p, l)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        n = p**l
        if len(raw) != _HEADER.size + 8 * n:
            log.warning("cache file %s has wrong size; recomputing", path)
            return None
        magic, fp, fl, fn = _HEADER.unpack_from(raw)
        if magic != MAGIC or fp != p or fl != l or fn != n:
            log.warning("cache file %s has bad header; recomputing", path)
            return None
        return np.frombuffer(raw, dtype="<i8", offset=_HEADER.size).astype(np.int64)

    def store(self, p: int, l: int, arr: np.ndarray) -> bool:
        if self.directory is None:
            return False
        if arr.dtype == object:
            # entries outside int64 cannot be serialized; recompute on demand
            return False
        n = p**l
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = _HEADER.pack(MAGIC, p, l, n) + arr.astype("<i8").tobytes()
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(p, l))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True
