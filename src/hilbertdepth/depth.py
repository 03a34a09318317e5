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
for a proper nonzero ideal, materializing full beta triangles (the rows of
every level) for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .combinatorics import _PASCAL
from .errors import DomainError
from .ideals import AlphaVector, Ideal, alpha_of_ideal, alpha_of_quotient


def beta_rows(counts):
    """Yield the beta rows b^0, b^1, ..., b^n of the alpha counts, exactly."""
    a0 = counts[0]
    row = (a0,)
    alternating = a0
    yield row
    for a in counts[1:]:
        alternating = a - alternating
        row = (a0, *[b - prev for prev, b in zip(row, row[1:])], alternating)
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
        sum(_PASCAL[q - j][k - j] * row[j] for j in range(k + 1))
        for k in range(q + 1)
    )


def hdepth(counts) -> int:
    """The largest d in [0, n] whose beta row is entrywise nonnegative.

    Walks the levels upward and stops at the first one with a negative entry:
    b^(d-1) is the running sum of b^d, so every level below an admissible one
    is admissible too.  Raises DomainError on the all-zero alpha vector: the
    zero module has no depth.
    """
    if not any(counts):
        raise DomainError("hdepth is undefined for the zero module (all-zero alpha)")
    d = -1
    for row in beta_rows(counts):
        if min(row) < 0:
            break
        d += 1
    return d


@dataclass(frozen=True)
class HdepthReport:
    """Everything the checkers need about one proper nonzero ideal."""

    ideal: Ideal
    alpha_quotient: AlphaVector
    alpha_ideal: AlphaVector
    hdepth_quotient: int
    hdepth_ideal: int
    beta_triangle_quotient: tuple[tuple[int, ...], ...]
    beta_triangle_ideal: tuple[tuple[int, ...], ...]
    principal: bool
    in_m2: bool

    @property
    def n(self) -> int:
        return self.ideal.n


def hdepth_report(I: Ideal) -> HdepthReport:
    """Compute alpha vectors, both Hilbert depths, and both beta triangles.

    Requires 0 != I != S; raises DomainError naming the offending side.
    """
    if I.is_zero:
        raise DomainError("hdepth report needs a nonzero ideal (I = 0 given)")
    if I.is_unit:
        raise DomainError("hdepth report needs a proper ideal (I = S given)")
    a_q = alpha_of_quotient(I)
    a_i = alpha_of_ideal(I)
    return HdepthReport(
        ideal=I,
        alpha_quotient=a_q,
        alpha_ideal=a_i,
        hdepth_quotient=hdepth(a_q.counts),
        hdepth_ideal=hdepth(a_i.counts),
        beta_triangle_quotient=beta_triangle(a_q.counts),
        beta_triangle_ideal=beta_triangle(a_i.counts),
        principal=I.is_principal,
        in_m2=I.in_m2,
    )
