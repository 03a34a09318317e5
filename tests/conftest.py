"""Fixtures, oracles and helpers shared across test modules."""

import time
import tracemalloc
from functools import lru_cache
from math import comb
from operator import gt

import pytest

from hilbertdepth.combinatorics import binom, binom_row, kk_upper_bound, macaulay_rep
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


# Every failing n = 9 prefix, zero-padded: the exact scan ``failing_prefixes``
# finds these 10 at q = 6 (hdepth(I) = 5) and 2 at q = 7 (hdepth(I) = 6), and
# no other; random sampling does not reach them.
N9_FAILING_ALPHAS = ([(1, 9, 36, 82, 105, 91, a6, 0, 0, 0) for a6 in range(40, 50)]
                     + [(1, 9, 36, 84, 123, 111, 64, a7, 0, 0) for a7 in (20, 21)])


@lru_cache(maxsize=None)
def _kk_upper(n, d, prev):
    """The largest a_d that Kruskal-Katona allows after a_{d-1} = prev."""
    return min(binom(n, d), n if d == 1 else kk_upper_bound(macaulay_rep(prev, d - 1)))


def realizable_profiles(n):
    """Every Kruskal-Katona-realizable alpha(S/I) with a_0 = 1 but the full
    simplex: a_d runs over [0, min(C(n,d), KK+(a_{d-1}))]."""
    def walk(prefix):
        if len(prefix) > n:
            yield prefix
            return
        for a in range(_kk_upper(n, len(prefix), prefix[-1]) + 1):
            yield from walk(prefix + (a,))
    return [alpha for alpha in walk((1,)) if alpha != binom_row(n)]


def _cap_row(n, Q):
    """b^Q(S), the cap on b^Q(S/I): C(n-Q+k-1, k) for k = 0..Q."""
    return [comb(n - Q + k - 1, k) for k in range(Q + 1)]


def beta_nodes(n, Q):
    """Every realizable prefix (a_0, ..., a_{Q-1}) whose cells b_k^Q(S/I),
    k < Q, are nonnegative and that some a_Q completes to b^Q >= 0, in
    ascending walk order, as (prefix, cells, rest_Q, lo, hi): ``cells`` are
    b_0^Q, ..., b_{Q-1}^Q, and a_Q runs over [lo, hi] with b_Q^Q = a_Q + rest_Q.

    With rest_k = sum_{j<k} (-1)^(k-j) C(Q-j, k-j) a_j, b_k^Q = a_k + rest_k, so
    the walk takes a_k from max(0, -rest_k) and never meets a negative cell;
    each node adds its a_j's terms to the vector (rest_{j+1}, ..., rest_Q).
    """
    # a_j's coefficients (-1)^(k-j) C(Q-j, k-j) in rest_k, for k = j+1..Q
    terms = [[(-1) ** (k - j) * comb(Q - j, k - j) for k in range(j + 1, Q + 1)]
             for j in range(Q + 1)]
    # depth first; rest = (rest_k, ..., rest_Q), k the level of the next entry
    stack = [((1,), (1,), terms[0])]
    while stack:
        prefix, cells, rest = stack.pop()
        k = len(prefix)
        lo, hi = max(0, -rest[0]), _kk_upper(n, k, prefix[-1])
        if k < Q:
            stack.extend((prefix + (a,), cells + (a + rest[0],),
                          [r + t * a for r, t in zip(rest[1:], terms[k])])
                         for a in range(hi, lo - 1, -1))
        elif lo <= hi:
            yield prefix, cells, rest[0], lo, hi


def failing_prefixes(n, levels=None):
    """Every realizable prefix (a_0, ..., a_Q), Q in ``levels`` (default
    1 <= Q < n), zero-padded, whose beta row b^Q(S/I) is nonnegative and
    exceeds the cap C(n-Q+k-1, k) = b_k^Q(S) in some cell k:
    hdepth(S/I) >= Q > hdepth(I), since b^Q(I) = b^Q(S) - b^Q(S/I).

    Zeroing the levels above Q keeps a complex, and the padded vector has the
    same b^Q, so these are the failures of hdepth(I) >= hdepth(S/I) at level Q.
    b_Q^Q grows with a_Q, so the failing a_Q of a ``beta_nodes`` node are one
    interval: all of them once a lower cell is over its cap, else those above
    cap_Q - rest_Q.  Listed by Q, then in ascending walk order.
    """
    found = []
    for Q in range(1, n) if levels is None else levels:
        cap = _cap_row(n, Q)
        for prefix, cells, rest, lo, hi in beta_nodes(n, Q):
            first = lo if any(map(gt, cells, cap)) else max(lo, cap[Q] - rest + 1)
            found.extend(prefix + (a,) + (0,) * (n - Q) for a in range(first, hi + 1))
    return found


def sharp_row(n, Q):
    """M(n, Q, k) for k = 0..Q: the largest b_k^Q(S/I) over the realizable
    prefixes with b^Q >= 0.  Each cell is read off a ``beta_nodes`` node, so a
    node counts only if some leaf lies below it; level Q's largest is
    hi + rest_Q."""
    row = [0] * (Q + 1)
    for _, cells, rest, _, hi in beta_nodes(n, Q):
        row = list(map(max, row, cells + (hi + rest,)))
    return row


def near_cap_prefixes(n, Q):
    """Every prefix (a_0, ..., a_k), k <= Q, other than S's own, that completes
    to b^Q >= 0 and whose last cell reaches the cap: b_k^Q >= C(n-Q+k-1, k).
    Sorted."""
    cap, own = _cap_row(n, Q), binom_row(n)
    found = set()
    for prefix, cells, rest, lo, hi in beta_nodes(n, Q):
        found.update(prefix[:k + 1] for k, (b, c) in enumerate(zip(cells, cap)) if b >= c)
        found.update(prefix + (a,) for a in range(max(lo, cap[Q] - rest), hi + 1))
    return sorted(p for p in found if p != own[:len(p)])


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
