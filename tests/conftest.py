import pytest

from severi import CacheStore


@pytest.fixture(scope="session")
def shared_cache():
    """One memo table for the whole session; values never conflict."""
    return CacheStore()
