"""Beta tables, inversion, and the depth criterion."""

import random
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hilbertdepth.combinatorics import binom, binom_row, complement_counts
from hilbertdepth.corpus import (alpha_census, compressed_complex_ideal, enumerate_ideals,
                                 random_ideal, sample_rng)
from hilbertdepth.depth import (alpha_from_beta, beta_triangle, beta_values,
                                hdepth, hdepth_pair, hdepth_report)
from hilbertdepth.errors import DomainError
from hilbertdepth.ideals import ALPHA_N_MAX, Ideal, parse_ideal

from conftest import principal_alpha_profile


def test_beta_examples_level7():
    a = (1, 9, 0, 0, 0, 0, 0, 0, 0, 0)
    row = beta_values(a, 7)
    assert row[0] == 1 and row[1] == 2
    for a2 in range(0, 37):
        counts = (1, 9, a2) + (0,) * 7
        assert beta_values(counts, 7)[2] == a2 - 33


def test_beta_level_zero_and_range():
    assert beta_values((5, 1, 2), 0) == (5,)
    with pytest.raises(ValueError):
        beta_values((1, 2), 3)
    with pytest.raises(ValueError):
        beta_values((1, 2), -1)


def test_alpha_from_beta_level7_spot_values():
    alpha = alpha_from_beta((1, 2, 0, 0, 0, 0, 0, 0))
    assert alpha == (1, 9, 33, 65, 75, 51, 19, 3)


def random_alpha(rng, n):
    row = binom_row(n)
    return tuple(rng.randint(0, row[j]) for j in range(n + 1))


def test_inversion_round_trip_seeded():
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 12)
        a = random_alpha(rng, n)
        for q in range(n + 1):
            assert alpha_from_beta(beta_values(a, q)) == a[: q + 1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inversion_round_trip_fuzz(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    row = binom_row(n)
    a = tuple(data.draw(st.integers(min_value=0, max_value=row[j])) for j in range(n + 1))
    q = data.draw(st.integers(min_value=0, max_value=n))
    assert alpha_from_beta(beta_values(a, q)) == a[: q + 1]


def test_hdepth_examples():
    for n in range(1, 9):
        a = (1,) + (0,) * n
        assert hdepth(a) == 0  # only the unit survives
    assert hdepth((0, 3, 3, 1)) == 2
    for n in range(2, 9):
        # principal ideal generated in top degree: quotient depth n-1
        I = parse_ideal("*".join(f"x{i}" for i in range(1, n + 1)), n)
        r = hdepth_report(I)
        assert r.hdepth_quotient == n - 1
        assert r.hdepth_ideal == n


def test_hdepth_scan_is_max():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 9)
        a = random_alpha(rng, n)
        if not any(a):
            continue
        d = hdepth(a)
        assert all(b >= 0 for b in beta_values(a, d))
        for worse in range(d + 1, n + 1):
            assert any(b < 0 for b in beta_values(a, worse))


def closed_form_beta(a, q):
    """b_k^q = sum_j (-1)^(k-j) C(q-j, k-j) a_j, straight from the definition."""
    return tuple(sum((-1) ** (k - j) * comb(q - j, k - j) * a[j] for j in range(k + 1))
                 for k in range(q + 1))


def seeded_alpha_vectors():
    """(n, alpha, q): 1,000 seeded uniform alpha vectors, each followed by its
    complement, with a level q drawn for each.  Complements of uniform
    vectors reach the high levels uniform ones miss."""
    rng = random.Random(1414)
    for _ in range(1000):
        n = rng.randint(1, 14)
        a = tuple(rng.randint(0, comb(n, j)) for j in range(n + 1))
        for vec in (a, tuple(comb(n, j) - a[j] for j in range(n + 1))):
            yield n, vec, rng.randint(0, n)


def test_beta_rows_match_closed_form_seeded():
    # every level of the triangle, and every single-level table, against the
    # definition; hdepth is the largest level whose closed-form row is >= 0
    depths = set()
    for n, vec, q in seeded_alpha_vectors():
        closed = [closed_form_beta(vec, d) for d in range(n + 1)]
        assert list(beta_triangle(vec)) == closed
        assert beta_values(vec, q) == closed[q]
        if any(vec):
            d = hdepth(vec)
            depths.add(d)
            assert d == max(d for d in range(n + 1) if min(closed[d]) >= 0)
    assert len(depths) >= 8


def reference_pair(a):
    """What hdepth_pair must return, through the tuple recurrence, with the
    I side walked from alpha(I) itself."""
    q = hdepth(a)
    return q, hdepth(complement_counts(len(a) - 1, a)), beta_values(a, q)


def test_hdepth_pair_matches_reference_exactly(census6):
    # every census profile for n = 1..6, and the seeded vectors: where S/I or
    # I is zero, hdepth_pair refuses as hdepth does
    for n in range(1, 7):
        for a in census6 if n == 6 else alpha_census(n):
            assert hdepth_pair(a) == reference_pair(a)
    seen = set()
    for n, a, _ in seeded_alpha_vectors():
        if any(a) and a != binom_row(n):
            result = hdepth_pair(a)
            assert result == reference_pair(a)
            seen.add(result[:2])
        else:
            with pytest.raises(DomainError):
                hdepth_pair(a)
    assert len(seen) >= 30


def test_cone_lemma_raises_both_depths_by_one(census6):
    # adjoining a variable that no generator uses divides both Hilbert series
    # by (1 - t), so both depths rise by exactly one, and the quotient's alpha
    # vector on n + 1 variables is the cone, cone(a)_j = a_j + a_{j-1}
    for n in range(1, 7):
        for a in census6 if n == 6 else alpha_census(n):
            q, h, _ = hdepth_pair(a)
            cone = tuple(x + y for x, y in zip(a + (0,), (0,) + a))
            assert hdepth_pair(cone)[:2] == (q + 1, h + 1)
            report = hdepth_report(Ideal(n + 1, compressed_complex_ideal(n, a).gens))
            assert report.alpha_quotient == cone
            assert (report.hdepth_quotient, report.hdepth_ideal) == (q + 1, h + 1)


@st.composite
def quotient_alphas(draw):
    """alpha(S/I) of a proper nonzero ideal's shape: a_0 = 1, 0 <= a_j <= C(n, j),
    not the full binomial row (I = 0)."""
    n = draw(st.integers(min_value=1, max_value=ALPHA_N_MAX))
    row = binom_row(n)
    a = (1,) + tuple(draw(st.integers(min_value=0, max_value=c)) for c in row[1:])
    assume(a != row)
    return a


def _alternating(n, parity):
    return tuple(1 if j == 0 else comb(n, j) if j % 2 == parity else 0 for j in range(n + 1))


@settings(max_examples=300, deadline=None)
@given(quotient_alphas())
# the widest fields: full levels of one parity, so the alternating sums pile up
@example(_alternating(ALPHA_N_MAX, 0))
@example(_alternating(ALPHA_N_MAX, 1))
# principal ideals, where hdepth(I) = n reads the S row at d = n
@example(tuple(comb(ALPHA_N_MAX, j) for j in range(ALPHA_N_MAX)) + (0,))
@example(tuple(comb(ALPHA_N_MAX, j) - binom(ALPHA_N_MAX - 2, j - 2)
               for j in range(ALPHA_N_MAX + 1)))
def test_hdepth_pair_matches_reference_fuzz(a):
    assert hdepth_pair(a) == reference_pair(a)


def test_hdepth_zero_module_errors():
    with pytest.raises(DomainError):
        hdepth((0, 0, 0))


def test_hdepth_report_examples():
    r = hdepth_report(parse_ideal("x1*x2*x3", 3))
    assert (r.hdepth_quotient, r.hdepth_ideal, r.principal) == (2, 3, True)
    r = hdepth_report(parse_ideal("x1*x2", 2))
    assert (r.hdepth_quotient, r.hdepth_ideal) == (1, 2)
    assert r.beta_triangle_quotient[2] == (1, 0, -1)
    r = hdepth_report(parse_ideal("x1, x2, x3", 3))
    assert (r.hdepth_quotient, r.hdepth_ideal) == (0, 2)
    assert r.in_m2 is False


def test_hdepth_report_rejects_trivial_ideals():
    with pytest.raises(DomainError, match="I = 0"):
        hdepth_report(parse_ideal("0", 3))
    with pytest.raises(DomainError, match="I = S"):
        hdepth_report(parse_ideal("1", 3))


def test_hdepth_report_bounds_exhaustive():
    for n in range(1, 5):
        for I in enumerate_ideals(n):
            r = hdepth_report(I)
            assert 0 <= r.hdepth_quotient <= n - 1
            assert 1 <= r.hdepth_ideal <= n


def test_hdepth_report_depths_match_hdepth_and_pair():
    # every ideal for n <= 4, and 200 seeded ideals for each n = 7..14
    ideals = [I for n in range(1, 5) for I in enumerate_ideals(n)]
    ideals += [random_ideal(n, sample_rng(8, n, i)) for n in range(7, 15) for i in range(200)]
    for I in ideals:
        r = hdepth_report(I)
        a_q, a_i = tuple(r.alpha_quotient), tuple(r.alpha_ideal)
        depths = (r.hdepth_quotient, r.hdepth_ideal)
        assert depths == (hdepth(a_q), hdepth(a_i)) == hdepth_pair(a_q)[:2]
        assert r.beta_quotient_at_q == hdepth_pair(a_q)[2]


def test_principal_equivalences_exhaustive():
    # principal <=> hdepth(I) = n <=> hdepth(S/I) = n-1, and the alpha-profile
    # principality test agrees with the generator count
    for n in range(1, 6):
        for I in enumerate_ideals(n):
            r = hdepth_report(I)
            assert r.principal == (r.hdepth_ideal == n) == (r.hdepth_quotient == n - 1)
            assert principal_alpha_profile(n, tuple(r.alpha_ideal)) == r.principal


def test_beta_triangle_in_report():
    # the triangles are derived from the alpha vectors on read; row q of the
    # S/I triangle is the row the report's walk kept
    for n in range(1, 5):
        for I in enumerate_ideals(n):
            r = hdepth_report(I)
            assert len(r.beta_triangle_quotient) == n + 1
            for d, row in enumerate(r.beta_triangle_quotient):
                assert type(row) is tuple and len(row) == d + 1
                assert row == beta_values(tuple(r.alpha_quotient), d)
            assert r.beta_triangle_quotient == beta_triangle(r.alpha_quotient)
            assert r.beta_triangle_ideal == beta_triangle(r.alpha_ideal)
            assert r.beta_triangle_quotient[r.hdepth_quotient] == r.beta_quotient_at_q


def test_report_is_frozen():
    r = hdepth_report(parse_ideal("x1*x2", 2))
    with pytest.raises(AttributeError):
        r.hdepth_quotient = 5
