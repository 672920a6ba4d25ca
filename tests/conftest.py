import pytest

from spinqpe.qpe import readout_kernel


@pytest.fixture(autouse=True)
def cold_kernel_cache():
    """Start every test with no readout kernel cached, so no test passes
    or fails on the kernels an earlier test left behind."""
    readout_kernel.cache_clear()
    yield
