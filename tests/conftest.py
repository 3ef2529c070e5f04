import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit of 1000."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)
