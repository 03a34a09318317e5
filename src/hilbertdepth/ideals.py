"""Squarefree monomial ideals as antichains of variable subsets.

A squarefree monomial in x_1..x_n is the subset of variables it uses, stored
as a bitmask (bit i-1 <-> x_i); its degree is the popcount.  An ideal is its
minimal generating set, an antichain under divisibility (bitmask inclusion).
The empty-set monomial 1 as a generator means the unit ideal I = S; no
generators means the zero ideal.

External grammar: comma-separated products of variables, ``x<digits>`` joined
by ``*``, whitespace insignificant; the literal ``0`` is the zero ideal and
``1`` the unit ideal.  Example: ``x1*x2, x2*x3, x3*x4``.

Alpha vectors count squarefree monomials per degree.  For ideals I inside J,
a_j(J/I) is the number of degree-j squarefree monomials lying in J but not in
I, and a_j(S/I) + a_j(I) = C(n, j).  Counting enumerates the full subset
lattice, held as one big-integer bitset over the 2^n monomial indices: the
members of an ideal are the upward closure of its generator bits, computed
with n shift-or passes, and per-degree counts are popcounts against level
masks.  This caps the computation at n <= ALPHA_N_MAX.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import N_MAX, binom_row, complement_counts
from .errors import CapacityError, DomainError, ParseError

ALPHA_N_MAX = 25

_FACTOR_RE = re.compile(r"^x([0-9]+)$")


@dataclass(frozen=True, order=True)
class Monomial:
    """A squarefree monomial as a variable bitmask (bit i-1 <-> x_i)."""

    mask: int

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def divides(self, other: "Monomial") -> bool:
        return self.mask & ~other.mask == 0

    def variables(self) -> tuple[int, ...]:
        """1-based indices of the variables appearing in the monomial."""
        return tuple(i + 1 for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    @classmethod
    def from_variables(cls, variables) -> "Monomial":
        mask = 0
        for v in variables:
            if v < 1:
                raise ValueError(f"variable index {v} must be >= 1")
            mask |= 1 << (v - 1)
        return cls(mask)

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "*".join(f"x{i}" for i in self.variables())


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


@dataclass(frozen=True)
class Ideal:
    """A squarefree monomial ideal given by its minimal generating antichain.

    ``gens`` is sorted by (degree, mask) and is an antichain; construct
    through ``from_masks``/``parse_ideal`` rather than directly.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        if not 1 <= self.n <= N_MAX:
            raise CapacityError(f"ideal: n={self.n} outside supported range [1, {N_MAX}]")

    @classmethod
    def from_masks(cls, n: int, masks) -> "Ideal":
        masks = tuple(masks)
        for m in masks:
            if m < 0 or m >> n:
                raise ValueError(f"generator mask {m:#x} uses variables beyond x{n}")
        return cls(n, tuple(Monomial(m) for m in minimalize(masks)))

    @classmethod
    def zero(cls, n: int) -> "Ideal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "Ideal":
        return cls(n, (Monomial(0),))

    @property
    def gen_masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].mask == 0

    @property
    def is_principal(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].mask != 0

    @property
    def in_m2(self) -> bool:
        """True when every generator has degree >= 2 (no linear generators)."""
        return all(g.degree >= 2 for g in self.gens)

    def contains(self, m: Monomial | int) -> bool:
        """Membership: some generator divides m."""
        mask = m.mask if isinstance(m, Monomial) else m
        return any(g.mask & ~mask == 0 for g in self.gens)

    def contains_ideal(self, other: "Ideal") -> bool:
        """True when other is a subideal, checked generator-wise."""
        return all(self.contains(g) for g in other.gens)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_unit:
            return "1"
        return ", ".join(str(g) for g in self.gens)


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

@lru_cache(maxsize=8)
def _lattice(n: int):
    """Per-n big-integer masks over the 2^n subset indices:

    returns (clear[v] for v in 0..n-1, level[j] for j in 0..n) where clear[v]
    flags the indices with variable-bit v unset and level[j] flags the indices
    of popcount j.
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


def upward_closure(n: int, members: int) -> int:
    """Close a subset-lattice bitset upward: every superset of a set bit."""
    clear, _ = _lattice(n)
    for v in range(n):
        members |= (members & clear[v]) << (1 << v)
    return members


def ideal_member_bits(n: int, gen_masks) -> int:
    """Bitset of all squarefree monomials in the ideal the masks generate."""
    seed = 0
    for g in gen_masks:
        seed |= 1 << g
    return upward_closure(n, seed) if seed else 0


def level_counts(n: int, members: int) -> tuple[int, ...]:
    """Per-degree popcounts of a subset-lattice bitset."""
    _, level = _lattice(n)
    return tuple((members & level[j]).bit_count() for j in range(n + 1))


def alpha_counts_of_ideal(n: int, gen_masks) -> tuple[int, ...]:
    """a_j(I) for the ideal generated by the given masks."""
    if n > ALPHA_N_MAX:
        raise CapacityError(
            f"alpha enumeration walks 2^n subsets; n={n} exceeds cap {ALPHA_N_MAX}")
    return level_counts(n, ideal_member_bits(n, gen_masks))


# --- alpha vectors ----------------------------------------------------------

@dataclass(frozen=True)
class AlphaVector:
    """Counts (a_0, ..., a_n) of squarefree monomials per degree."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("alpha vector must have n+1 entries")
        row = binom_row(self.n)
        for j, a in enumerate(self.counts):
            if not 0 <= a <= row[j]:
                raise ValueError(f"a_{j}={a} outside [0, C({self.n},{j})={row[j]}]")

    def __getitem__(self, j: int) -> int:
        return self.counts[j]

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


def alpha_vector(J: Ideal, I: Ideal | None = None) -> AlphaVector:
    """Alpha vector of J/I: counts of squarefree monomials in J but not in I.

    I = None (or the zero ideal) counts J itself; J the unit ideal counts the
    quotient S/I through the complement identity a_j(S/I) = C(n,j) - a_j(I).
    """
    n = J.n
    if I is None:
        I = Ideal.zero(n)
    if I.n != n:
        raise DomainError(f"alpha_vector: mismatched variable counts {I.n} != {n}")
    if not J.contains_ideal(I):
        raise DomainError("alpha_vector: I is not contained in J")
    if n > ALPHA_N_MAX:
        raise CapacityError(
            f"alpha enumeration walks 2^n subsets; n={n} exceeds cap {ALPHA_N_MAX}")
    if J.is_unit:
        return AlphaVector(n, complement_counts(n, alpha_counts_of_ideal(n, I.gen_masks)))
    members = ideal_member_bits(n, J.gen_masks) & ~ideal_member_bits(n, I.gen_masks)
    return AlphaVector(n, level_counts(n, members))


def alpha_of_quotient(I: Ideal) -> AlphaVector:
    """Alpha vector of S/I."""
    return alpha_vector(Ideal.unit(I.n), I)


def alpha_of_ideal(I: Ideal) -> AlphaVector:
    """Alpha vector of the ideal I itself."""
    return alpha_vector(I)
