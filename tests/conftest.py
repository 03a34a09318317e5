"""Fixtures, oracles and helpers shared across test modules."""

import time
import tracemalloc
from math import comb

import pytest

from hilbertdepth.combinatorics import binom
from hilbertdepth.corpus import alpha_census


@pytest.fixture(scope="session")
def census6():
    """The n = 6 alpha census, computed once per test session (about 1 s).

    Tests only read it."""
    return alpha_census(6)


def traced(fn):
    """fn()'s value, its wall time in seconds and its traced memory peak in bytes."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        value = fn()
        return value, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def all_representations(N, k):
    """Brute force: every strictly-decreasing-top representation of N at k."""
    out = []

    def rec(idx, max_top, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx < 1:
            return
        top = idx
        while comb(top, idx) <= remaining and top < max_top:
            acc.append((top, idx))
            rec(idx - 1, top, remaining - comb(top, idx), acc)
            acc.pop()
            top += 1

    rec(k, 10**9, N, [])
    return out


# Every failing n = 9 prefix, zero-padded: ``profiles.failing_prefixes`` finds
# these 10 at q = 6 (hdepth(I) = 5) and 2 at q = 7 (hdepth(I) = 6), and
# no other; random sampling does not reach them.
N9_FAILING_ALPHAS = ([(1, 9, 36, 82, 105, 91, a6, 0, 0, 0) for a6 in range(40, 50)]
                     + [(1, 9, 36, 84, 123, 111, 64, a7, 0, 0) for a7 in (20, 21)])


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
