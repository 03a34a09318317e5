"""Beta rows, the Hilbert depth criterion, and the alpha<->beta inversion.

For a quotient with alpha vector (a_0, ..., a_n) and a level 0 <= q <= n, the
beta row at q is the tuple (b_0, ..., b_q) with

    b_k = sum_{j=0}^{k} (-1)^(k-j) * C(q-j, k-j) * a_j,   k = 0..q,

and the Hilbert depth is the largest d such that every entry of the beta
row at d is nonnegative.  ``beta_rows`` builds each level from the one
below: b^d_k = b^(d-1)_k - b^(d-1)_(k-1) for 0 < k < d.  The transform
inverts exactly:

    a_k = sum_{j=0}^{k} C(q-j, k-j) * b_j,   k = 0..q.

All arithmetic is exact.  ``hdepth_report`` bundles both sides (S/I and I)
for a proper nonzero ideal: one walk per side, up to its first negative row,
reads its depth (and b^q on S/I); the full beta triangles are derived on read.
``hdepth_pair`` is the fast path of the corpus harness: both depths and the
row at q from one walk over packed rows.  ``ring_beta_row`` is the row of S
itself, which that walk and every inequality the checks state read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import sub
from typing import NamedTuple

from .combinatorics import N_MAX, binom, binom_row
from .errors import CapacityError, DomainError
from .ideals import Ideal, alpha_of_ideal, alpha_of_quotient


def beta_rows(counts):
    """Yield the beta rows b^0, b^1, ..., b^n of the alpha counts, exactly."""
    a0 = counts[0]
    row = (a0,)
    alternating = a0
    yield row
    for a in counts[1:]:
        alternating = a - alternating
        row = (a0, *map(sub, row[1:], row), alternating)
        yield row


def beta_values(counts, q: int) -> tuple[int, ...]:
    """(b_0, ..., b_q) for the given alpha counts, exact."""
    n = len(counts) - 1
    if not 0 <= q <= n:
        raise ValueError(f"beta level q={q} outside [0, {n}]")
    return next(islice(beta_rows(counts), q, None))


def beta_triangle(counts) -> tuple[tuple[int, ...], ...]:
    """The beta rows b^0, ..., b^n, one tuple per level."""
    return tuple(beta_rows(counts))


def alpha_from_beta(row) -> tuple[int, ...]:
    """Recover (a_0, ..., a_q) from the beta row (b_0, ..., b_q); exact inverse
    of beta_values."""
    q = len(row) - 1
    return tuple(
        sum(binom(q - j, k - j) * row[j] for j in range(k + 1))
        for k in range(q + 1)
    )


def _depth(rows) -> tuple[int, tuple[int, ...]]:
    """The last level d before the first beta row with a negative entry, and b^d.

    Walks the levels upward and stops at the first one with a negative entry:
    b^(d-1) is the running sum of b^d, so every level below an admissible one
    is admissible too.
    """
    d, top = -1, ()
    for row in rows:
        if min(row) < 0:
            break
        d, top = d + 1, row
    return d, top


def hdepth(counts) -> int:
    """The largest d in [0, n] whose beta row is entrywise nonnegative.

    Raises DomainError on the all-zero alpha vector: the zero module has no
    depth.
    """
    if not any(counts):
        raise DomainError("hdepth is undefined for the zero module (all-zero alpha)")
    return _depth(beta_rows(counts))[0]


@lru_cache(maxsize=None)
def ring_beta_row(n: int, d: int) -> tuple[int, ...]:
    """b^d(S) = (C(n-d+k-1, k))_{k=0..d}, the beta row of S = K[x_1..x_n] at
    level d, with C(-1, 0) = 1 at d = n (proof in ``hdepth_pair``).

    It caps every inequality the checks state: b_k^d(I) = b_k^d(S) -
    b_k^d(S/I), so hdepth(I) >= d iff b_k^d(S/I) <= b_k^d(S) for every k <= d.
    """
    return tuple(binom(n - d + k - 1, k) if n - d + k else 1 for k in range(d + 1))


@lru_cache(maxsize=None)
def _pair_tables(n: int):
    """Per-n tables of ``hdepth_pair``, fields w = 2n+2 bits wide: for each
    level d, B_d (bit w-1 of fields 0..d) and P_d = B_d + the packed row
    ``ring_beta_row(n, d)`` of S; plus the binomial row, the alpha vector
    of S.  Raises CapacityError above N_MAX."""
    if n > N_MAX:
        raise CapacityError(f"hdepth_pair: n={n} exceeds cap {N_MAX}")
    w = 2 * n + 2
    sign = tuple(sum(1 << (w * k + w - 1) for k in range(d + 1)) for d in range(n + 1))
    cap = tuple(b + sum(c << (w * k) for k, c in enumerate(ring_beta_row(n, d)))
                for d, b in enumerate(sign))
    return sign, cap, binom_row(n)


def hdepth_pair(counts) -> tuple[int, int, tuple[int, ...]]:
    """(hdepth(S/I), hdepth(I), b^q(S/I)) from the alpha counts of S/I, in one
    walk; raises CapacityError when n exceeds N_MAX, and DomainError naming the
    first entry outside 0 <= a_j <= C(n, j), which the width below assumes, and
    when S/I or I is zero.

    Each row b^d is one Python int, field k (w = 2n+2 bits) holding b_k^d as
    a signed digit, so a level is one update: row - (row << w) + (a_d << wd).

    *The I side.*  The beta transform is linear in alpha, and alpha(I) is
    alpha(S) - alpha(S/I), so b_k^d(I) = b_k^d(S) - b_k^d(S/I).  The row of S
    is b_k^d(S) = C(n-d+k-1, k): with u = t/(1+t), the inversion
    a_k = sum_j C(d-j, k-j) b_j reads sum_k a_k t^k = (1+t)^d sum_j b_j u^j
    mod t^(d+1), and (1+t)^n = (1+t)^d (1-u)^-(n-d) gives
    sum_j b_j(S) u^j = (1-u)^-(n-d) = sum_k C(n-d+k-1, k) u^k, which is 1
    at d = n.  So one walk over the rows of S/I decides both depths.

    *The width.*  |b_k^d| <= sum_j C(d-j, k-j) a_j <= sum_j C(n, j) 2^(d-j)
    <= 3^n < 2^(2n+1) on either side (alpha(I) obeys the same bounds), and
    0 <= C(n-d+k-1, k) <= 2^(n-1).  So every field of row + B_d and of
    P_d - row lies in (0, 2^w): no borrow crosses a field, and bit w-1 of
    field k is set exactly when b_k^d >= 0 on that side.  The walk stops
    once both sides have met a negative entry (a nonnegative row stays
    nonnegative at every lower level, see ``hdepth``); b^q is nonnegative,
    so it decodes as plain w-bit fields.
    """
    n = len(counts) - 1
    sign, cap, full = _pair_tables(n)
    for j, (a, c) in enumerate(zip(counts, full)):
        if not 0 <= a <= c:
            raise DomainError(f"alpha entry a_{j} = {a} is outside [0, C({n}, {j}) = {c}]")
    if not any(counts):
        raise DomainError("hdepth is undefined for the zero module (S/I = 0)")
    if tuple(counts) == full:
        raise DomainError("hdepth is undefined for the zero module (I = 0)")
    w = 2 * n + 2
    row = top = 0
    q = h = -1
    for d, a in enumerate(counts):
        row = row - (row << w) + (a << w * d)
        b = sign[d]
        if q == d - 1 and (row + b) & b == b:
            q, top = d, row
        if h == d - 1 and (cap[d] - row) & b == b:
            h = d
        if q < d and h < d:
            break
    field = (1 << w) - 1
    return q, h, tuple(top >> w * k & field for k in range(q + 1))


class HdepthReport(NamedTuple):
    """Everything the checkers need about one proper nonzero ideal."""

    ideal: Ideal
    alpha_quotient: tuple[int, ...]
    alpha_ideal: tuple[int, ...]
    hdepth_quotient: int
    hdepth_ideal: int
    beta_quotient_at_q: tuple[int, ...]

    n = property(lambda self: self.ideal.n)
    principal = property(lambda self: self.ideal.is_principal)
    in_m2 = property(lambda self: self.ideal.in_m2)
    beta_triangle_quotient = property(lambda self: beta_triangle(self.alpha_quotient))
    beta_triangle_ideal = property(lambda self: beta_triangle(self.alpha_ideal))


def hdepth_report(I: Ideal) -> HdepthReport:
    """Compute both alpha vectors, both Hilbert depths and b^q(S/I), each side
    walked from its own alpha vector (independent of ``hdepth_pair``).

    Requires 0 != I != S; raises DomainError naming the offending side.
    """
    if I.is_zero:
        raise DomainError("hdepth report needs a nonzero ideal (I = 0 given)")
    if I.is_unit:
        raise DomainError("hdepth report needs a proper ideal (I = S given)")
    a_q = alpha_of_quotient(I)
    a_i = alpha_of_ideal(I)
    q, beta_q = _depth(beta_rows(a_q))
    return HdepthReport(
        ideal=I,
        alpha_quotient=a_q,
        alpha_ideal=a_i,
        hdepth_quotient=q,
        hdepth_ideal=_depth(beta_rows(a_i))[0],
        beta_quotient_at_q=beta_q,
    )
