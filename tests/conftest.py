"""Session-wide fixtures: the spectrum tables shared across test modules.

The large tables are expensive to build, so they are constructed once and
reused by both the unit tests and the acceptance suite.
"""

import pytest

from runnerspec import spectrum
from runnerspec.spectrum import EnumerationSpec, build_spectrum


@pytest.fixture(autouse=True)
def _no_pool_outlives_its_test():
    """A pooled build keeps its pool for the process, and its workers keep
    the module state of their fork, a test's patches included; so each
    test's pool is shut down with it."""
    yield
    spectrum._close_pool()


@pytest.fixture(scope="session")
def table_n2_1e6():
    return build_spectrum(EnumerationSpec(n=2, max_volume_sq=10**6))


@pytest.fixture(scope="session")
def table_n2_1e4():
    return build_spectrum(EnumerationSpec(n=2, max_volume_sq=10**4))


@pytest.fixture(scope="session")
def table_n3_1e3():
    return build_spectrum(EnumerationSpec(n=3, max_volume_sq=10**3))


@pytest.fixture(scope="session")
def table_n3_1e4():
    return build_spectrum(EnumerationSpec(n=3, max_volume_sq=10**4))


@pytest.fixture(scope="session")
def table_n3_4e4():
    return build_spectrum(EnumerationSpec(n=3, max_volume_sq=4 * 10**4))
