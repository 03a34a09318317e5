"""Squarefree monomial ideals as antichains of variable subsets.

A squarefree monomial in x_1..x_n is the subset of variables it uses, stored
as a bitmask (bit i-1 <-> x_i); its degree is the popcount.  An ideal is its
minimal generating set, an antichain under divisibility (bitmask inclusion),
and ``Ideal.gens`` holds it as those masks, plain ints.
The empty-set monomial 1 (mask 0) as a generator means the unit ideal I = S;
no generators means the zero ideal.  ``monomial_str`` writes a mask as text.

External grammar: comma-separated products of variables, ``x<digits>`` joined
by ``*``, whitespace insignificant; the literal ``0`` is the zero ideal and
``1`` the unit ideal.  Example: ``x1*x2, x2*x3, x3*x4``.

Alpha vectors count squarefree monomials per degree.  For ideals I inside J,
a_j(J/I) is the number of degree-j squarefree monomials lying in J but not in
I, and a_j(S/I) + a_j(I) = C(n, j).  Counting enumerates the full subset
lattice, held as one big-integer bitset over the 2^n monomial indices: the
members of an ideal are the upward closure of its generator bits, computed
with n shift-or passes, and per-degree counts are popcounts against level
masks.  This caps the computation at n <= ALPHA_N_MAX.  ``alpha_vector``
keeps the last ideal's counts, so the two vectors of one report count one
closure.  Alpha vectors are plain tuples (a_0, ..., a_n).
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .combinatorics import N_MAX, complement_counts
from .errors import CapacityError, DomainError, ParseError

ALPHA_N_MAX = 25

_FACTOR_RE = re.compile(r"^x([0-9]+)$")


def monomial_str(mask: int) -> str:
    """The monomial of a mask as text: ``x1*x3`` for 0b101, ``1`` for 0."""
    if not mask:
        return "1"
    names = []
    while mask:
        low = mask & -mask  # the lowest set bit; its bit_length is its variable
        names.append(f"x{low.bit_length()}")
        mask ^= low
    return "*".join(names)


def minimalize(masks) -> tuple[int, ...]:
    """Prune to the antichain of divisibility-minimal masks (duplicates dropped),
    sorted by (degree, mask)."""
    result: list[int] = []
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        for r in result:
            if not r & ~m:
                break
        else:
            result.append(m)
    return tuple(result)


class Ideal(NamedTuple("Ideal", [("n", int), ("gens", tuple[int, ...])])):
    """A squarefree monomial ideal given by its minimal generating antichain.

    ``gens`` is a tuple of generator masks, an antichain sorted by (degree,
    mask) as ``minimalize`` returns it.  ``Ideal(n, masks)`` trusts its masks
    to be that already (the corpus builds them so) and checks only n;
    ``from_masks`` and ``parse_ideal`` validate and minimalize outside input.
    """

    __slots__ = ()

    def __new__(cls, n: int, gens: tuple[int, ...]):
        if not 1 <= n <= N_MAX:
            raise CapacityError(f"ideal: n={n} outside supported range [1, {N_MAX}]")
        return super().__new__(cls, n, gens)

    @classmethod
    def _make(cls, fields):  # so that _replace checks n too
        return cls(*fields)

    @classmethod
    def from_masks(cls, n: int, masks) -> "Ideal":
        masks = tuple(masks)
        for m in masks:
            if m < 0 or m >> n:
                raise ValueError(f"generator mask {m:#x} uses variables beyond x{n}")
        return cls(n, minimalize(masks))

    @classmethod
    def zero(cls, n: int) -> "Ideal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "Ideal":
        return cls(n, (0,))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == (0,)

    @property
    def is_principal(self) -> bool:
        return len(self.gens) == 1 and self.gens[0] != 0

    @property
    def in_m2(self) -> bool:
        """True when every generator has degree >= 2 (no linear generators)."""
        return all(g.bit_count() >= 2 for g in self.gens)

    def contains(self, mask: int) -> bool:
        """Membership of the monomial ``mask``: some generator divides it."""
        return any(not g & ~mask for g in self.gens)

    def contains_ideal(self, other: "Ideal") -> bool:
        """True when other is a subideal, checked generator-wise."""
        return all(self.contains(g) for g in other.gens)

    def __str__(self) -> str:
        return ", ".join(map(monomial_str, self.gens)) if self.gens else "0"


def parse_ideal(text: str, n: int) -> Ideal:
    """Parse generator text over x1..xn into a minimalized Ideal.

    Raises ParseError (with character position) for malformed factors,
    repeated variables within one monomial, or variable indices beyond n.
    Empty input denotes the zero ideal.
    """
    if not 1 <= n <= N_MAX:
        raise CapacityError(f"parse_ideal: n={n} outside supported range [1, {N_MAX}]")
    stripped = text.strip()
    if stripped == "" or stripped == "0":
        return Ideal.zero(n)
    if stripped == "1":
        return Ideal.unit(n)

    masks: list[int] = []
    offset = 0
    for part in text.split(","):
        term = part.strip()
        if not term:
            raise ParseError(f"empty generator at position {offset}", offset)
        mask = 0
        factor_offset = offset
        for factor in part.split("*"):
            token = factor.strip()
            pos = factor_offset + (factor.index(token) if token else 0)
            m = _FACTOR_RE.match(token)
            if not m:
                raise ParseError(f"expected a variable like 'x3', got {token!r} at position {pos}", pos)
            idx = int(m.group(1))
            if not 1 <= idx <= n:
                raise ParseError(f"variable x{idx} out of range 1..{n} at position {pos}", pos)
            bit = 1 << (idx - 1)
            if mask & bit:
                raise ParseError(f"repeated variable x{idx} (not squarefree) at position {pos}", pos)
            mask |= bit
            factor_offset += len(factor) + 1
        masks.append(mask)
        offset += len(part) + 1
    return Ideal.from_masks(n, masks)


# --- subset-lattice bitsets ---------------------------------------------------

@lru_cache(maxsize=1)
def _lattice(n: int):
    """Per-n big-integer masks over the 2^n subset indices:

    returns (clear[v] for v in 0..n-1, level[j] for j in 0..n) where clear[v]
    flags the indices with variable-bit v unset and level[j] flags the indices
    of popcount j.  Only the last n's masks are kept (about 200 MB at n = 25):
    every run visits its n values one at a time.
    """
    clear = []
    for v in range(n):
        # 2^v ones, 2^v zeros, repeated: double the pattern up to 2^n bits
        pattern, width = (1 << (1 << v)) - 1, 1 << (v + 1)
        while width < 1 << n:
            pattern |= pattern << width
            width <<= 1
        clear.append(pattern)
    level = [1] + [0] * n  # levels for n = 0: only the empty set
    for v in range(n):
        shift = 1 << v
        level = [level[0]] + [level[j] | (level[j - 1] << shift) for j in range(1, v + 2)] + [0] * (n - v - 1)
    return tuple(clear), tuple(level)


def alpha_counts_of_ideal(n: int, gens) -> tuple[int, ...]:
    """a_j(I) for the ideal generated by the given masks.

    The members of I are the generator bits closed upward (every superset of
    a set bit, one shift-or pass per variable), counted per degree against
    the level masks; this runs once per random sample.
    """
    if n > ALPHA_N_MAX:
        raise CapacityError(
            f"alpha enumeration walks 2^n subsets; n={n} exceeds cap {ALPHA_N_MAX}")
    clear, level = _lattice(n)
    members = 0
    for g in gens:
        members |= 1 << g
    for v, c in enumerate(clear):
        members |= (members & c) << (1 << v)
    return tuple([(members & bits).bit_count() for bits in level])


# --- alpha vectors ----------------------------------------------------------

@lru_cache(maxsize=1)
def _ideal_counts(ideal: Ideal) -> tuple[int, ...]:
    """a_j(ideal), memoized for the last ideal: a report reads alpha(S/I) and
    alpha(I) in turn, complements of one closure, and this counts it once.
    The immutable ideal is its own key (``gens`` is a tuple)."""
    return alpha_counts_of_ideal(ideal.n, ideal.gens)


def alpha_vector(J: Ideal, I: Ideal | None = None) -> tuple[int, ...]:
    """Alpha vector of J/I: counts of squarefree monomials in J but not in I.

    I = None (or the zero ideal) counts J itself; J the unit ideal counts the
    quotient S/I through the complement identity a_j(S/I) = C(n,j) - a_j(I).
    """
    n = J.n
    if I is None:
        I = Ideal.zero(n)
    if I.n != n:
        raise DomainError(f"alpha_vector: mismatched variable counts {I.n} != {n}")
    # containment holds trivially in S and for the zero ideal
    if not (J.is_unit or I.is_zero or J.contains_ideal(I)):
        raise DomainError("alpha_vector: I is not contained in J")
    if J.is_unit:
        return complement_counts(_ideal_counts(I))
    counts = _ideal_counts(J)
    if not I.is_zero:
        # I inside J: a_j(J/I) = a_j(J) - a_j(I)
        counts = tuple(map(sub, counts, _ideal_counts(I)))
    return counts


def alpha_of_quotient(I: Ideal) -> tuple[int, ...]:
    """Alpha vector of S/I."""
    return alpha_vector(Ideal.unit(I.n), I)


def alpha_of_ideal(I: Ideal) -> tuple[int, ...]:
    """Alpha vector of the ideal I itself."""
    return alpha_vector(I)
