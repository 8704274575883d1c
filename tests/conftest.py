"""Suite-wide fixtures."""

import pytest

from cubesums import cache


@pytest.fixture(autouse=True)
def _isolate_cache(monkeypatch):
    # no test reads or writes a store that CUBESUMS_CACHE_DIR or an earlier
    # test pointed at; a test that wants a store configures its own
    monkeypatch.delenv("CUBESUMS_CACHE_DIR", raising=False)
    cache.configure(None)
    yield
    cache.configure(None)
