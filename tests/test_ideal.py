"""Parsing, membership, minimalization, and alpha vectors."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertdepth.combinatorics import binom, binom_row, macaulay_rep, kk_lower_bound, kk_upper_bound
from hilbertdepth.corpus import enumerate_ideals, random_ideal, sample_rng
from hilbertdepth.errors import CapacityError, DomainError, ParseError
from hilbertdepth.ideals import (ALPHA_N_MAX, Ideal, Monomial, _lattice,
                                 alpha_counts_of_ideal, alpha_of_ideal,
                                 alpha_of_quotient, alpha_vector, minimalize,
                                 parse_ideal)


def test_parse_basic():
    I = parse_ideal("x1*x2, x2*x3", 3)
    assert I.gen_masks == (0b011, 0b110)
    assert str(I) == "x1*x2, x2*x3"


def test_parse_prunes_divisible_generators():
    assert parse_ideal("x1, x1*x2", 2).gen_masks == (0b01,)
    assert parse_ideal("x1*x2, x1*x2", 2).gen_masks == (0b11,)


def test_parse_principal():
    I = parse_ideal("x1*x2*x3", 3)
    assert I.is_principal
    assert len(I.gens) == 1


def test_parse_whitespace_and_literals():
    assert parse_ideal("  x1 * x2 ,\tx2*x3 ", 3) == parse_ideal("x1*x2,x2*x3", 3)
    assert parse_ideal("0", 4).is_zero
    assert parse_ideal("", 4).is_zero
    assert parse_ideal("  ", 4).is_zero
    assert parse_ideal("1", 4).is_unit


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ideal("x1*x1", 3)  # repeated variable: not squarefree
    with pytest.raises(ParseError):
        parse_ideal("x4", 3)  # out of range
    with pytest.raises(ParseError):
        parse_ideal("x0", 3)
    with pytest.raises(ParseError):
        parse_ideal("y1", 3)
    with pytest.raises(ParseError):
        parse_ideal("x1,,x2", 3)
    err = None
    try:
        parse_ideal("x1*x2, x9", 4)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 7


def test_parse_print_round_trip():
    for n in (3, 5, 8):
        for i in range(200):
            I = random_ideal(n, sample_rng(11, n, i))
            assert parse_ideal(str(I), n) == I


def test_minimalize_idempotent():
    masks = (0b0111, 0b0011, 0b1100, 0b1110, 0b0011)
    once = minimalize(masks)
    assert once == minimalize(once) == (0b0011, 0b1100)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=40))
@example([0, 0, 0b101])
@example([0b11, 0b11, 0b111, 0b100, 0b100])
def test_minimalize_matches_brute_force(masks):
    minimal = {m for m in masks if not any(o != m and o & ~m == 0 for o in masks)}
    assert minimalize(masks) == tuple(sorted(minimal, key=lambda m: (m.bit_count(), m)))


def test_monomial_basics():
    m = Monomial.from_variables([1, 3])
    assert m.mask == 0b101 and m.degree == 2
    assert str(m) == "x1*x3"
    assert str(Monomial(0)) == "1"
    assert Monomial(0b001).divides(Monomial(0b101))
    assert not Monomial(0b010).divides(Monomial(0b101))


def test_contains_examples():
    I = parse_ideal("x1*x2", 3)
    assert I.contains(Monomial(0b111))
    assert not I.contains(Monomial(0b101))
    m = parse_ideal("x1, x2, x3", 3)
    assert not m.contains(Monomial(0))


def test_contains_against_expansion_oracle():
    for n, seed in ((4, 1), (8, 2), (12, 3)):
        for i in range(30):
            I = random_ideal(n, sample_rng(seed, n, i))
            members = {
                m for m in range(1 << n)
                if any(g & ~m == 0 for g in I.gen_masks)
            }
            for m in range(1 << n):
                assert I.contains(Monomial(m)) == (m in members)


def test_alpha_examples():
    m3 = parse_ideal("x1, x2, x3", 3)
    assert tuple(alpha_of_quotient(m3)) == (1, 0, 0, 0)
    I = parse_ideal("x1*x2", 2)
    assert tuple(alpha_of_quotient(I)) == (1, 2, 0)
    for i in range(50):
        # generators of degree 2..7 only, so every ideal lies inside m^2
        rng = sample_rng(5, 9, i)
        masks = [sum(1 << v for v in rng.sample(range(9), rng.randint(2, 7)))
                 for _ in range(rng.randint(1, 27))]
        J = Ideal.from_masks(9, masks)
        assert J.in_m2
        a = alpha_of_quotient(J)
        assert a[0] == 1 and a[1] == 9


def test_alpha_general_quotient():
    J = parse_ideal("x1", 2)
    I = parse_ideal("x1*x2", 2)
    assert tuple(alpha_vector(J, I)) == (0, 1, 0)
    assert tuple(alpha_vector(J, J)) == (0, 0, 0)


def test_alpha_complement_identity_exhaustive():
    for n in range(1, 6):
        row = binom_row(n)
        for I in enumerate_ideals(n):
            a_i = alpha_of_ideal(I)
            a_q = alpha_of_quotient(I)
            assert all(a_i[j] + a_q[j] == row[j] for j in range(n + 1))


def test_alpha_kruskal_katona_consistency_exhaustive():
    # consecutive entries of alpha(S/I) obey both shadow bounds for every
    # complex on up to 5 vertices
    for n in range(2, 6):
        for I in enumerate_ideals(n):
            a = alpha_of_quotient(I)
            for k in range(1, n):
                if a[k] == 0:
                    assert a[k + 1] == 0
                    continue
                rep = macaulay_rep(a[k], k)
                assert a[k + 1] <= kk_upper_bound(rep)
                if k >= 2:
                    assert kk_lower_bound(rep) <= a[k - 1]


def test_lattice_masks_match_definition():
    # clear[v]: the subset indices without variable bit v; level[j]: those of
    # popcount j
    for n in range(13):
        clear, level = _lattice(n)
        indices = range(1 << n)
        assert clear == tuple(sum(1 << i for i in indices if not i >> v & 1)
                              for v in range(n))
        assert level == tuple(sum(1 << i for i in indices if i.bit_count() == j)
                              for j in range(n + 1))


def test_alpha_counts_at_the_cap():
    # (x1*x2) holds the degree-j monomials through x1 and x2: C(n-2, j-2)
    n = ALPHA_N_MAX
    try:
        assert alpha_counts_of_ideal(n, [0b11]) == tuple(binom(n - 2, j - 2)
                                                         for j in range(n + 1))
    finally:
        _lattice.cache_clear()  # about 200 MB of masks at n = 25


def test_alpha_errors():
    J = parse_ideal("x1*x2", 3)
    I = parse_ideal("x1*x3", 3)
    with pytest.raises(DomainError):
        alpha_vector(J, I)  # not contained
    with pytest.raises(DomainError):
        alpha_vector(J, parse_ideal("x1*x2", 4))  # mismatched n
    with pytest.raises(CapacityError):
        alpha_of_quotient(Ideal.from_masks(26, [0b11]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**9))
def test_random_ideal_round_trip_fuzz(n, seed):
    I = random_ideal(n, sample_rng(seed, n, 0))
    assert parse_ideal(str(I), n) == I
    # antichain invariant
    gens = I.gen_masks
    for a in gens:
        for b in gens:
            if a != b:
                assert a & ~b != 0
