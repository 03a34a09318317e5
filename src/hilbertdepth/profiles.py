"""The Kruskal-Katona prefix walk over the realizable alpha(S/I) on n variables,
a_d in [0, ``kk_ceiling(n, d, a_{d-1})``], and the exact scans read off it.
Each walk memoizes the ceiling for its own run only.

*The reduction.*  At a level Q, b^Q(I) = b^Q(S) - b^Q(S/I), and b^Q(S) is the
cap ``ring_beta_row(n, Q)`` (proof in ``depth.hdepth_pair``).  So b^Q(S/I) >= 0
with a cell over its cap means hdepth(S/I) >= Q > hdepth(I).  Both tests read
only (a_0, ..., a_Q), and zeroing the levels above Q keeps a complex with the
same b^Q, which ``corpus.compressed_complex_ideal`` realizes.  So the
comparison fails at level Q iff some realizable prefix, zero-padded, fails it.

*The walk.*  b_k^Q = a_k + rest_k, rest_k = sum_{j<k} (-1)^(k-j) C(Q-j, k-j)
a_j, so a_k starts at max(0, -rest_k) and no cell is negative; each node adds
its a_j's terms to (rest_{j+1}, ..., rest_Q).  It stops at level Q - 1, as the
leaf level is closed form: b_Q^Q = a_Q + rest_Q grows with a_Q, so a node's a_Q
are one interval [lo, hi], failing wholly once a lower cell is over its cap,
else above cap_Q - rest_Q; its largest b_Q^Q is hi + rest_Q.
"""

from functools import lru_cache, partial
from math import comb
from operator import gt

from .combinatorics import binom_row, kk_ceiling
from .depth import ring_beta_row


def realizable_profiles(n):
    """Every realizable alpha(S/I) with a_0 = 1 but the full simplex, in
    ascending order: a_d runs over [0, kk_ceiling(n, d, a_{d-1})]."""
    ceiling = lru_cache(maxsize=None)(partial(kk_ceiling, n))
    prefixes = [(1,)]
    for d in range(1, n + 1):
        prefixes = [p + (a,) for p in prefixes for a in range(ceiling(d, p[-1]) + 1)]
    return [alpha for alpha in prefixes if alpha != binom_row(n)]


def beta_nodes(n, Q):
    """Every realizable prefix (a_0, ..., a_{Q-1}) whose cells b_k^Q(S/I),
    k < Q, are nonnegative and that some a_Q completes to b^Q >= 0, in
    ascending walk order, as (prefix, cells, rest_Q, lo, hi): ``cells`` are
    b_0^Q, ..., b_{Q-1}^Q, and a_Q runs over [lo, hi] with b_Q^Q = a_Q + rest_Q."""
    ceiling = lru_cache(maxsize=None)(partial(kk_ceiling, n))
    # a_j's coefficients (-1)^(k-j) C(Q-j, k-j) in rest_k, for k = j+1..Q
    terms = [[(-1) ** (k - j) * comb(Q - j, k - j) for k in range(j + 1, Q + 1)]
             for j in range(Q + 1)]
    # depth first; rest = (rest_k, ..., rest_Q), k the level of the next entry
    stack = [((1,), (1,), terms[0])]
    while stack:
        prefix, cells, rest = stack.pop()
        k = len(prefix)
        lo, hi = max(0, -rest[0]), ceiling(k, prefix[-1])
        if k < Q:
            stack.extend((prefix + (a,), cells + (a + rest[0],),
                          [r + t * a for r, t in zip(rest[1:], terms[k])])
                         for a in range(hi, lo - 1, -1))
        elif lo <= hi:
            yield prefix, cells, rest[0], lo, hi


def failing_prefixes(n, levels=None):
    """Every realizable prefix (a_0, ..., a_Q), Q in ``levels`` (default
    1 <= Q < n), zero-padded, with b^Q(S/I) >= 0 over the cap in some cell:
    hdepth(S/I) >= Q > hdepth(I).  Listed by Q, then in ascending walk order."""
    found = []
    for Q in range(1, n) if levels is None else levels:
        cap = ring_beta_row(n, Q)
        for prefix, cells, rest, lo, hi in beta_nodes(n, Q):
            first = lo if any(map(gt, cells, cap)) else max(lo, cap[Q] - rest + 1)
            found.extend(prefix + (a,) + (0,) * (n - Q) for a in range(first, hi + 1))
    return found


def sharp_row(n, Q):
    """M(n, Q, k) for k = 0..Q: the largest b_k^Q(S/I) over the realizable
    prefixes with b^Q >= 0, each cell read off a ``beta_nodes`` node, so a
    node counts only if some leaf lies below it."""
    row = [0] * (Q + 1)
    for _, cells, rest, _, hi in beta_nodes(n, Q):
        row = list(map(max, row, cells + (hi + rest,)))
    return row


def near_cap_prefixes(n, Q):
    """Every prefix (a_0, ..., a_k), k <= Q, other than S's own, that completes
    to b^Q >= 0 and whose last cell reaches the cap, b_k^Q >= b_k^Q(S); sorted."""
    cap, own = ring_beta_row(n, Q), binom_row(n)
    found = set()
    for prefix, cells, rest, lo, hi in beta_nodes(n, Q):
        found.update(prefix[:k + 1] for k, (b, c) in enumerate(zip(cells, cap)) if b >= c)
        found.update(prefix + (a,) for a in range(max(lo, cap[Q] - rest), hi + 1))
    return sorted(p for p in found if p != own[:len(p)])
