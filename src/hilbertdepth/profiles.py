"""The Kruskal-Katona prefix walk over the realizable alpha(S/I) on n variables,
a_d in [0, ``kk_ceiling(n, d, a_{d-1})``], and the exact scans read off it:
``failing_prefixes``, the prefixes that fail the comparison at a level Q, and
``sharp_cells``, the prefixes that reach each cap cell of Q, whose largest
cells are the sharp row.  Every walk is depth first on an explicit stack and
streams, holding no list of every node (``sharp_cells`` keeps only the few
cap-reaching prefixes), and memoizes the ceiling for its own run only.  A scan's
level Q must lie in 1 <= Q < n (only the full simplex reaches Q = n).

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
from itertools import compress
from math import comb
from operator import ge, gt

from .combinatorics import binom_row, kk_ceiling
from .depth import ring_beta_row


def _check_level(n, Q):
    if not 1 <= Q < n:
        raise ValueError(f"level Q={Q} is outside 1 <= Q <= {n - 1} for n={n}")


def realizable_profiles(n):
    """Every realizable alpha(S/I) with a_0 = 1 but the full simplex, in
    ascending order: a_d runs over [0, kk_ceiling(n, d, a_{d-1})]."""
    ceiling = lru_cache(maxsize=None)(partial(kk_ceiling, n))
    own = binom_row(n)
    # depth first; a node (a_0, ..., a_{n-1}) yields its a_n in [0, hi] as leaves
    stack = [(1,)] if n else []
    while stack:
        prefix = stack.pop()
        hi = ceiling(len(prefix), prefix[-1])
        if len(prefix) < n:
            stack.extend(prefix + (a,) for a in range(hi, -1, -1))
        else:
            yield from filter(own.__ne__, (prefix + (a,) for a in range(hi + 1)))


def beta_nodes(n, Q):
    """Every realizable prefix (a_0, ..., a_{Q-1}) whose cells b_k^Q(S/I),
    k < Q, are nonnegative and that some a_Q completes to b^Q >= 0, in
    ascending walk order, as (prefix, cells, rest_Q, lo, hi): ``cells`` are
    b_0^Q, ..., b_{Q-1}^Q, and a_Q runs over [lo, hi] with b_Q^Q = a_Q + rest_Q."""
    _check_level(n, Q)
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
    hdepth(S/I) >= Q > hdepth(I).  Yielded by Q, then in ascending walk order."""
    for Q in range(1, n) if levels is None else levels:
        _check_level(n, Q)
        cap = ring_beta_row(n, Q)
        for prefix, cells, rest, lo, hi in beta_nodes(n, Q):
            first = lo if any(map(gt, cells, cap)) else max(lo, cap[Q] - rest + 1)
            yield from (prefix + (a,) + (0,) * (n - Q) for a in range(first, hi + 1))


def sharp_cells(n, Q):
    """For each cell k = 0..Q, a dict from every prefix (a_0, ..., a_k) that
    completes to b^Q >= 0 and reaches the cap, b_k^Q(S/I) >= b_k^Q(S), to that
    b_k^Q(S/I), in ascending prefix order.  S's own prefix reaches every cap
    cell, so a dict's largest value is the sharp row's M(n, Q, k), and its
    other keys are the near-cap prefixes."""
    _check_level(n, Q)
    cap = ring_beta_row(n, Q)
    found = {}
    for prefix, cells, rest, lo, hi in beta_nodes(n, Q):
        for k in compress(range(Q), map(ge, cells, cap)):
            found[prefix[:k + 1]] = cells[k]
        for a in range(max(lo, cap[Q] - rest), hi + 1):
            found[prefix + (a,)] = a + rest
    return [{p: b for p, b in sorted(found.items()) if len(p) == k + 1} for k in range(Q + 1)]
