import pytest

from qexpmap import memo


@pytest.fixture
def fresh_caches():
    """Forget every value memoized so far in this process, so that the test
    builds anew, and forget what the test built when it ends."""
    memo.clear()
    yield
    memo.clear()
