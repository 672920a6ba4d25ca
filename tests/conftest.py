import pytest

from spinqpe.qpe import _dyadic_triples, readout_kernel
from spinqpe.records import _full_range_heads


@pytest.fixture(autouse=True)
def cold_kernel_cache():
    """Start every test with no readout kernel, no dyadic bins and no
    table of bin heads cached, so no test passes or fails on what an
    earlier test left behind."""
    readout_kernel.cache_clear()
    _dyadic_triples.cache_clear()
    _full_range_heads.cache_clear()
    yield
