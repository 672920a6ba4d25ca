import pytest

from spinqpe.qpe import _window_readout, readout_kernel
from spinqpe.records import _full_range_heads


@pytest.fixture(autouse=True)
def cold_kernel_cache():
    """Start every test with no readout kernel, no window readout and no
    table of bin heads cached, so no test passes or fails on what an
    earlier test left behind."""
    readout_kernel.cache_clear()
    _window_readout.cache_clear()
    _full_range_heads.cache_clear()
    yield
