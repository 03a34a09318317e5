"""Binomials, Macaulay representations, and shadow bounds."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertdepth.combinatorics import (N_MAX, MacaulayRep, binom, binom_diff,
                                        binom_row, colex_mask, complement_counts,
                                        kk_lower_bound, kk_upper_bound, macaulay_rep)

from conftest import all_representations


def pascal_oracle(limit):
    """Pascal's triangle built row by row, independently of ``math.comb``."""
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n + 1)])
    return rows


def test_binom_matches_pascal_oracle():
    rows = pascal_oracle(N_MAX)
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            assert binom(n, k) == rows[n][k]


def test_binom_values_and_conventions():
    assert binom(9, 3) == 84
    assert binom(40, 20) == 137846528820
    for n in (0, 1, 7, 40):
        assert binom(n, 0) == 1
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(2, 3) == 0


def test_binom_range_errors():
    with pytest.raises(ValueError):
        binom(41, 2)
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom_row(41)


def test_binom_row():
    assert binom_row(4) == (1, 4, 6, 4, 1)


def test_complement_counts_reads_n_off_the_vector():
    # n = len(counts) - 1: one entry out per entry in, at every length
    assert complement_counts((1, 2, 3, 4, 5)) == (0, 2, 3, 0, -4)
    assert complement_counts((1, 3, 2, 0)) == (0, 0, 1, 1)
    for n in range(6):
        assert complement_counts(binom_row(n)) == (0,) * (n + 1)


# --- Macaulay representations -------------------------------------------------

def test_macaulay_examples():
    assert macaulay_rep(38, 5).terms == ((7, 5), (6, 4), (3, 3), (2, 2))
    assert macaulay_rep(37, 4).terms == ((7, 4), (3, 3), (2, 2))
    for k in range(1, 9):
        assert macaulay_rep(0, k).terms == ()


def test_macaulay_rep_validity_and_reconstruction_small():
    for k in range(1, 9):
        for N in range(2001):
            rep = macaulay_rep(N, k)
            assert rep.is_valid()
            assert rep.value == N


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_macaulay_reconstruction_fuzz(N, k):
    rep = macaulay_rep(N, k)
    assert rep.is_valid()
    assert rep.value == N


def test_macaulay_uniqueness_bruteforce():
    # exhaustive search over strictly-decreasing index sequences finds exactly
    # the greedy representation, for N <= 200 and k <= 6
    for k in range(1, 7):
        for N in range(1, 201):
            reps = all_representations(N, k)
            assert len(reps) == 1, (N, k, reps)
            assert reps[0] == macaulay_rep(N, k).terms


def _colex_key(rep: MacaulayRep):
    by_index = dict((idx, top) for top, idx in rep.terms)
    return tuple(by_index.get(i, -1) for i in range(rep.k, 0, -1))


def test_macaulay_monotonicity_colex():
    for k in range(1, 7):
        prev = _colex_key(macaulay_rep(0, k))
        for N in range(1, 400):
            cur = _colex_key(macaulay_rep(N, k))
            assert prev < cur
            prev = cur


def test_macaulay_argument_errors():
    with pytest.raises(ValueError):
        macaulay_rep(-1, 3)
    with pytest.raises(ValueError):
        macaulay_rep(5, 0)
    with pytest.raises(ValueError):
        macaulay_rep(5, 41)


# --- Kruskal-Katona bounds ------------------------------------------------------

def test_kk_examples():
    rep = macaulay_rep(12, 7)
    assert rep.terms == ((8, 7), (6, 6), (5, 5), (4, 4), (3, 3))
    assert kk_lower_bound(rep) == 46
    assert kk_lower_bound(macaulay_rep(46, 6)) == 90

    rep83 = macaulay_rep(83, 3)
    assert rep83.terms == ((8, 3), (7, 2), (6, 1))
    assert kk_lower_bound(rep83) == 36
    assert kk_upper_bound(rep83) == 120

    assert kk_upper_bound(macaulay_rep(37, 4)) == 21
    assert kk_lower_bound(MacaulayRep(5, ())) == 0
    assert kk_upper_bound(MacaulayRep(5, ())) == 0


def test_kk_full_level():
    for n in range(2, 10):
        for k in range(1, n):
            rep = macaulay_rep(comb(n, k), k)
            assert rep.terms == ((n, k),)
            assert kk_upper_bound(rep) == comb(n, k + 1)


def test_kk_lower_requires_k_at_least_2():
    with pytest.raises(ValueError):
        kk_lower_bound(macaulay_rep(5, 1))


def colex_first_subsets(universe, k, count):
    subsets = sorted(tuple(sorted(c, reverse=True)) for c in combinations(range(universe), k))
    return [frozenset(c) for c in subsets[:count]]


def shadow(family, k):
    out = set()
    for f in family:
        for v in f:
            out.add(f - {v})
    return out


def upper_closure(family, universe, k):
    fam = set(family)
    out = set()
    for c in combinations(range(universe), k + 1):
        s = frozenset(c)
        if all(s - {v} in fam for v in s):
            out.add(s)
    return out


def test_kk_bounds_match_compression_oracle():
    # colex-first families attain both bounds exactly, for every size that
    # fits on 8 points and 2 <= k <= 4
    for k in range(2, 5):
        for N in range(0, comb(8, k) + 1):
            fam = colex_first_subsets(8, k, N)
            rep = macaulay_rep(N, k)
            assert len(shadow(fam, k)) == kk_lower_bound(rep), (N, k)
            assert len(upper_closure(fam, 8, k)) == kk_upper_bound(rep), (N, k)


def test_kk_bounds_extremal_over_all_families():
    # true brute force on a small universe: over ALL families of N pairs on 6
    # points the colex-first family minimizes the shadow and maximizes the
    # upper closure, matching the formulas
    universe = 6
    pairs = [frozenset(c) for c in combinations(range(universe), 2)]
    for N in range(0, 9):
        min_shadow = None
        max_up = -1
        for fam in combinations(pairs, N):
            sh = len(shadow(fam, 2))
            up = len(upper_closure(fam, universe, 2))
            min_shadow = sh if min_shadow is None else min(min_shadow, sh)
            max_up = max(max_up, up)
        rep = macaulay_rep(N, 2)
        assert min_shadow == kk_lower_bound(rep) if N else min_shadow == 0
        assert max_up == kk_upper_bound(rep)


def test_colex_mask_unranks_every_rank():
    # colex order on k-sets is ascending mask order, so rank r is the r-th
    # smallest mask of popcount k; the masks below 2^n are a prefix of those
    # below 2^12, so this covers every n <= 12
    for k in range(1, 13):
        level = [m for m in range(1 << 12) if m.bit_count() == k]
        assert [colex_mask(r, k) for r in range(len(level))] == level, k
    assert colex_mask(0, 3) == 0b111
    with pytest.raises(ValueError):
        colex_mask(-1, 2)


# --- difference family ----------------------------------------------------------

def test_binom_diff_spot_values():
    assert binom_diff(3, 4, 7) == -70
    assert binom_diff(3, 4, 15) == 0
    assert binom_diff(2, 5, 11) == -198


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=40))
def test_binom_diff_identity(c, k, x):
    assert binom_diff(c, k, x) == binom(x, k) - c * binom(x, k - 1)


def test_binom_diff_errors():
    with pytest.raises(ValueError):
        binom_diff(0, 3, 5)
    with pytest.raises(ValueError):
        binom_diff(2, 3, 41)
