"""The n = 9 counterexamples beyond the colex choice: the q = 6 family, the
Kruskal-Katona steps of its argument, and the facet sizes of the witnesses.

Every complex on [9] whose f-vector is a failing q = 6 profile
(1, 9, 36, 82, 105, 91, a_6) is, for some pair P, every set of size <= 5 that
does not contain P, the edge P, five triangles through P, and a_6 of the 49
six-sets that avoid P.  The tests build one member per a_6 with P = {x8, x9}
and check that each fails ``main`` as the compressed witness does.  Variable
x_i is bit i - 1 of a mask.
"""

from collections import Counter
from itertools import combinations

import pytest

from hilbertdepth.combinatorics import kk_lower_bound, macaulay_rep
from hilbertdepth.corpus import compressed_complex_ideal
from hilbertdepth.depth import hdepth_pair, hdepth_report
from hilbertdepth.ideals import Ideal, alpha_of_quotient
from hilbertdepth.theorems import witness_from_ideal

N = 9
P = 1 << 7 | 1 << 8  # {x8, x9}


def _mask(vs):
    return sum(1 << v for v in vs)


def family_ideal(a6: int) -> Ideal:
    """The ideal of non-faces of the family member with the first ``a6`` six-sets
    avoiding P, in ``itertools.combinations`` order."""
    faces = {m for m in range(1 << N) if m.bit_count() <= 5 and m & P != P}
    faces.add(P)
    faces.update(P | 1 << v for v in range(5))  # P with each of x1..x5
    six_sets = [m for m in map(_mask, combinations(range(N), 6)) if m & P != P]
    assert len(six_sets) == 49
    faces.update(six_sets[:a6])
    return Ideal.from_masks(N, (m for m in range(1 << N) if m not in faces))


def facet_sizes(ideal: Ideal) -> dict[int, int]:
    """Histogram of facet sizes of the ideal's complex, by brute force over
    every subset of the variables."""
    n = ideal.n
    faces = {m for m in range(1 << n) if not ideal.contains(m)}
    facets = (m for m in faces
              if all(m >> v & 1 or m | 1 << v not in faces for v in range(n)))
    return dict(Counter(m.bit_count() for m in facets))


@pytest.mark.parametrize("a6", range(40, 50))
def test_family_member_fails_main(a6):
    ideal = family_ideal(a6)
    alpha = alpha_of_quotient(ideal)
    assert alpha == (1, 9, 36, 82, 105, 91, a6, 0, 0, 0)
    report = hdepth_report(ideal)
    assert (report.profile.q, report.profile.h_ideal) == (6, 5)
    assert hdepth_pair(alpha)[:2] == (6, 5)
    witness = witness_from_ideal(ideal, "main")
    assert witness["violated"] == "hdepth(I) = 5 < hdepth(S/I) = 6"


def test_family_argument_numeric_steps():
    # the 91 5-faces shade at least 105 4-sets, which is a_4: the shadow is every 4-face
    rep = macaulay_rep(91, 5)
    assert rep.terms == ((8, 5), (7, 4))
    assert kk_lower_bound(rep) == 105
    # complements: the 21 missing 4-sets become 21 5-sets, whose shadow has at least 35 sets
    assert kk_lower_bound(macaulay_rep(21, 5)) == 35


@pytest.mark.parametrize("alpha, sizes", [
    ((1, 9, 36, 82, 105, 91, 40, 0, 0, 0), {3: 5, 5: 7, 6: 40}),
    ((1, 9, 36, 82, 105, 91, 49, 0, 0, 0), {3: 5, 6: 49}),
    ((1, 9, 36, 84, 123, 111, 64, 20, 0, 0), {4: 3, 7: 20}),
    ((1, 9, 36, 84, 123, 111, 64, 21, 0, 0), {4: 3, 7: 21}),
])
def test_compressed_witness_facet_sizes(alpha, sizes):
    # the smallest facet bounds the multigraded (and Stanley) depth of S/I, so
    # under that notion each witness's depth of S/I is below its q
    assert facet_sizes(compressed_complex_ideal(alpha)) == sizes


def test_family_facets_differ_from_compressed_until_a6_is_49():
    low = family_ideal(40)
    assert facet_sizes(low) == {3: 5, 6: 40}
    assert low != compressed_complex_ideal((1, 9, 36, 82, 105, 91, 40, 0, 0, 0))
    assert family_ideal(49) == compressed_complex_ideal((1, 9, 36, 82, 105, 91, 49, 0, 0, 0))
