"""Exact binomial machinery: binomials, Macaulay representations, shadow bounds.

Everything here is exact integer arithmetic.  The central objects are

* ``binom(n, k)`` -- C(n, k), hard-capped at ``n <= N_MAX`` (the cap that
  every ideal/depth computation lives under);
* the k-binomial ("Macaulay") representation of a nonnegative integer,

      N = C(n_k, k) + C(n_{k-1}, k-1) + ... + C(n_j, j),
      n_k > n_{k-1} > ... > n_j >= j >= 1,

  which exists and is unique, and is produced greedily; it also names the
  k-subset of that colex rank (``colex_mask``);
* the Kruskal-Katona shadow bounds derived from that representation: given the
  number a_k of k-element faces of a simplicial complex, shifting every index
  of the representation down by one gives a lower bound on a_{k-1}, and
  shifting up by one gives an upper bound on a_{k+1}.

The representation machinery is deliberately not capped at N_MAX: tops of a
representation of, say, N = 10^6 at k = 1 exceed any fixed table, so those
binomials are evaluated exactly on demand.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import sub
from typing import NamedTuple

N_MAX = 40


def binom(n: int, k: int) -> int:
    """C(n, k) for 0 <= n <= N_MAX; returns 0 when k < 0 or k > n.

    Raises ValueError when n is outside [0, N_MAX].  The out-of-range-k
    convention matches the usual one for representations, where terms like
    C(2, 3) silently vanish.
    """
    if not 0 <= n <= N_MAX:
        raise ValueError(f"binom: n={n} outside supported range [0, {N_MAX}]")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def binom_row(n: int) -> tuple[int, ...]:
    """The full row (C(n,0), ..., C(n,n))."""
    if not 0 <= n <= N_MAX:
        raise ValueError(f"binom_row: n={n} outside supported range [0, {N_MAX}]")
    return tuple(comb(n, k) for k in range(n + 1))


def complement_counts(counts) -> tuple[int, ...]:
    """Apply a_j -> C(n,j) - a_j, n = len(counts) - 1 (swaps the roles of I and S/I)."""
    return tuple(map(sub, binom_row(len(counts) - 1), counts))


class MacaulayRep(NamedTuple):
    """A k-binomial representation: terms (top_i, i) with i descending from k.

    Invariants: indices form a consecutive descending run k, k-1, ..., j with
    j >= 1; tops strictly decrease and satisfy top_i >= i; the empty term list
    represents 0.
    """

    k: int
    terms: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return sum(comb(top, idx) for top, idx in self.terms)

    def is_valid(self) -> bool:
        if self.k < 1:
            return False
        expected_idx = self.k
        prev_top = None
        for top, idx in self.terms:
            if idx != expected_idx or idx < 1 or top < idx:
                return False
            if prev_top is not None and top >= prev_top:
                return False
            prev_top = top
            expected_idx -= 1
        return True


def _largest_top(rem: int, idx: int) -> int:
    """Largest m with C(m, idx) <= rem (rem >= 1, so m >= idx exists)."""
    if idx == 1:
        return rem
    hi = idx + 1
    while comb(hi, idx) <= rem:
        hi *= 2
    lo = idx  # C(idx, idx) = 1 <= rem
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if comb(mid, idx) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_rep(N: int, k: int) -> MacaulayRep:
    """Greedy k-binomial representation of N >= 0.

    Repeatedly takes the largest C(m, i) not exceeding the remainder; the
    greedy choice is the unique representation with strictly decreasing tops.
    N = 0 yields the empty term list.
    """
    if N < 0:
        raise ValueError(f"macaulay_rep: N={N} must be nonnegative")
    if not 1 <= k <= N_MAX:
        raise ValueError(f"macaulay_rep: k={k} outside supported range [1, {N_MAX}]")
    terms: list[tuple[int, int]] = []
    rem = N
    idx = k
    while rem > 0:
        top = _largest_top(rem, idx)
        terms.append((top, idx))
        rem -= comb(top, idx)
        idx -= 1
    return MacaulayRep(k, tuple(terms))


def colex_mask(r: int, k: int) -> int:
    """The k-subset of colex rank r >= 0, as a mask (bit v for element v).

    The k-set c_k > ... > c_1 has colex rank C(c_k, k) + ... + C(c_1, 1), so
    its elements are the tops of r's k-binomial representation, whose last
    index is j, and c_i = i - 1 below it (those terms vanish): 0 .. j-2.
    Rank 0 is {0 .. k-1}.
    """
    terms = macaulay_rep(r, k).terms
    j = terms[-1][1] if terms else k + 1
    mask = (1 << (j - 1)) - 1
    for top, _ in terms:
        mask |= 1 << top
    return mask


def kk_lower_bound(rep: MacaulayRep) -> int:
    """Kruskal-Katona lower bound on a_{k-1} given the representation of a_k.

    Shifts every index down by one: sum of C(top_i, i-1).  Terms with i = 1
    contribute C(top, 0) = 1, kept literally.  Requires k >= 2.
    """
    if rep.k < 2:
        raise ValueError(f"kk_lower_bound: index k={rep.k} must be >= 2")
    return sum(comb(top, idx - 1) for top, idx in rep.terms)


def kk_upper_bound(rep: MacaulayRep) -> int:
    """Kruskal-Katona upper bound on a_{k+1} given the representation of a_k.

    Shifts every index up by one: sum of C(top_i, i+1); terms with
    top < i + 1 vanish.
    """
    if rep.k < 1:
        raise ValueError(f"kk_upper_bound: index k={rep.k} must be >= 1")
    return sum(comb(top, idx + 1) if top >= idx + 1 else 0 for top, idx in rep.terms)


def kk_ceiling(n: int, d: int, prev: int) -> int:
    """The largest a_d on n vertices after a_{d-1} = prev: min(C(n, d), KK^+(prev))."""
    return min(binom(n, d), n if d == 1 else kk_upper_bound(macaulay_rep(prev, d - 1)))


def binom_diff(c: int, k: int, x: int) -> int:
    """C(x, k) - c*C(x, k-1), exact and signed.

    This one-parameter family underlies every auxiliary bound table in the
    verification suite.  Range restrictions are those of ``binom`` (x <= N_MAX).
    """
    if c < 1:
        raise ValueError(f"binom_diff: c={c} must be >= 1")
    return binom(x, k) - c * binom(x, k - 1)
