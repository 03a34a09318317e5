"""Fixtures shared across test modules."""

import pytest

from hilbertdepth.corpus import alpha_census


@pytest.fixture(scope="session")
def census6():
    """The n = 6 alpha census, computed once per test session (about 1 s).

    Tests only read it."""
    return alpha_census(6)
