"""Both Hilbert depths re-derived by the series criterion, without ``depth.py``.

By Uliczka (Manuscripta Math. 132, 2010), hdepth(M) is the largest r for
which (1-t)^r H_M(t) has nonnegative coefficients, where
H_M(t) = sum_j a_j t^j / (1-t)^j.  Split at r: the terms j <= r give the
polynomial P_r = sum_{j<=r} a_j t^j (1-t)^(r-j), of degree at most r, and the
terms j > r are a_j t^j / (1-t)^(j-r), which add only positive coefficients
above degree r.  So r is admissible iff P_r is nonnegative.  The oracle below
expands P_r by integer convolution for every r in 0..n, with no early stop,
and uses only ``math``; the package supplies the profiles and the depths it
is compared with.
"""

from math import comb

import pytest

from hilbertdepth.corpus import alpha_census, compressed_complex_ideal, random_ideal, sample_rng
from hilbertdepth.depth import hdepth_pair, hdepth_report

from conftest import N9_FAILING_ALPHAS


def _convolve(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _series_depth(alpha):
    """The largest admissible r, asserting that the admissible r form a prefix."""
    n = len(alpha) - 1
    powers = [[1]]  # powers[m] = (1-t)^m
    for _ in range(n):
        powers.append(_convolve(powers[-1], [1, -1]))
    admissible = []
    for r in range(n + 1):
        poly = [0] * (r + 1)
        for j in range(r + 1):
            for i, c in enumerate(_convolve([0] * j + [alpha[j]], powers[r - j])):
                poly[i] += c
        if min(poly) >= 0:
            admissible.append(r)
    assert admissible == list(range(len(admissible))), (alpha, admissible)
    return admissible[-1]


def _oracle_pair(alpha_sf):
    """(hdepth(S/I), hdepth(I)) from alpha(S/I), with a_j(I) = C(n,j) - a_j(S/I)."""
    n = len(alpha_sf) - 1
    return _series_depth(alpha_sf), _series_depth([comb(n, j) - a for j, a in enumerate(alpha_sf)])


def _agrees(ideal):
    """The oracle's pair for alpha(S/I) equals hdepth_pair's and
    hdepth_report's; returns alpha(S/I) and that pair."""
    report = hdepth_report(ideal)
    alpha = report.alpha_quotient
    pair = _oracle_pair(alpha)
    assert hdepth_pair(alpha)[:2] == pair, (ideal, alpha)
    assert (report.profile.q, report.profile.h_ideal) == pair, (ideal, alpha)
    return alpha, pair


def test_series_oracle_matches_every_census_profile(census6):
    profiles = 0
    for n in range(1, 7):
        for alpha in (census6 if n == 6 else alpha_census(n)):
            assert _agrees(compressed_complex_ideal(alpha))[0] == alpha
            profiles += 1
    assert profiles == 681


def test_series_oracle_matches_the_failing_n9_prefixes():
    # the 10 failing prefixes at q = 6 and the 2 at q = 7
    checked = [_agrees(compressed_complex_ideal(alpha)) for alpha in N9_FAILING_ALPHAS]
    assert checked == list(zip(N9_FAILING_ALPHAS, [(6, 5)] * 10 + [(7, 6)] * 2))


@pytest.mark.parametrize("n", range(7, 15))
def test_series_oracle_matches_seeded_random_ideals(n):
    for i in range(200):
        _agrees(random_ideal(n, sample_rng(23, n, i)))
