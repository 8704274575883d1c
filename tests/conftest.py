"""Suite-wide fixtures and helpers."""

import tracemalloc

import pytest

from cubesums import cache


@pytest.fixture(autouse=True)
def _isolate_cache():
    # no test reads or writes a store that an earlier test pointed at; a
    # test that wants a store configures its own
    cache.configure(None)
    yield
    cache.configure(None)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs; numpy reports its
    array buffers there, so this bounds a call's temporaries."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
