"""Fixtures and oracles shared across test modules."""

import pytest

from hilbertdepth.combinatorics import binom
from hilbertdepth.corpus import alpha_census


@pytest.fixture(scope="session")
def census6():
    """The n = 6 alpha census, computed once per test session (about 1 s).

    Tests only read it."""
    return alpha_census(6)


def principal_alpha_profile(n: int, alpha_ideal) -> bool:
    """Principality read off alpha(I): the ideal generated by one monomial of
    degree d has exactly C(n-d, j-d) members in each degree j, and any ideal
    matching that profile is principal (the unique minimal-degree monomial
    divides everything, by induction on degree).

    The oracle that ``theorems._principal_profiles`` is tested against."""
    d = next((j for j, a in enumerate(alpha_ideal) if a), None)
    if d is None or d == 0:
        return False
    return all(alpha_ideal[j] == binom(n - d, j - d) for j in range(n + 1))
