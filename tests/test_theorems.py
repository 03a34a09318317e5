"""Checkers, the fast profile evaluator, and the published bound tables."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from hilbertdepth import depth
from hilbertdepth.combinatorics import binom, binom_diff, binom_row, complement_counts
from hilbertdepth.corpus import (alpha_census, compressed_complex_ideal, enumerate_ideals,
                                 random_ideal, sample_rng)
from hilbertdepth.depth import (HdepthReport, beta_values, hdepth_pair, hdepth_report,
                               ring_beta_row)
from hilbertdepth.errors import DomainError
from hilbertdepth.ideals import Ideal, alpha_of_quotient, parse_ideal
from hilbertdepth.profiles import (beta_nodes, failing_prefixes, near_cap_prefixes,
                                   realizable_profiles, sharp_row)
from hilbertdepth.theorems import (CHECK_ORDER, PREDICATES, VERIFY_CHECKS, Profile,
                                   _principal_profiles, _witness, evaluate_profile,
                                   reproduce_bound_tables, run_checks, witness_from_ideal)

from conftest import N9_FAILING_ALPHAS, principal_alpha_profile


def _verdict(report, name):
    """One check's verdict on a report, read off run_checks' record."""
    return run_checks(report)[1][CHECK_ORDER.index(name)]


def test_registry_names():
    assert set(PREDICATES) == set(CHECK_ORDER)
    assert "beta47-bound" not in VERIFY_CHECKS


def test_principal_equivalence_cases():
    r = hdepth_report(parse_ideal("x1*x2*x3", 3))
    assert _verdict(r, "principal-equivalence") == ""

    r = hdepth_report(parse_ideal("x1, x2, x3", 3))
    assert _verdict(r, "principal-equivalence") == ""  # all three sides false

    r = hdepth_report(parse_ideal("x1", 1))
    assert _verdict(r, "principal-equivalence") == ""  # all three sides true at n = 1


def test_main_small_cases():
    r = hdepth_report(parse_ideal("x1*x2", 2))
    assert _verdict(r, "main") == ""  # 2 >= 1

    for n in range(1, 5):
        for ideal in enumerate_ideals(n):
            assert _verdict(hdepth_report(ideal), "main") == ""


def test_bound_equivalence_gating_and_agreement():
    # principal or not-inside-m^2 instances are gated out
    r = hdepth_report(parse_ideal("x1*x2*x3", 3))
    assert _verdict(r, "bound-equivalence") is None
    r = hdepth_report(parse_ideal("x1, x2*x3", 3))
    assert _verdict(r, "bound-equivalence") is None

    applicable = 0
    for n in range(2, 6):
        for ideal in enumerate_ideals(n):
            verdict = _verdict(hdepth_report(ideal), "bound-equivalence")
            if verdict is not None:
                applicable += 1
                assert verdict == ""
    assert applicable > 0


def test_q6_bounds_gating():
    # at n <= 6 the quotient depth never reaches 6, so the check never applies
    for ideal in enumerate_ideals(3):
        assert _verdict(hdepth_report(ideal), "q6-bounds") is None


def test_lemma79_gating_and_constructed_instance():
    # a quotient realizing the minimal level-7 profile: built from colex-first
    # families, it has beta^7 = (1, 2, 0, ..., 0) and depth exactly 7
    alpha = (1, 9, 33, 65, 75, 51, 19, 3, 0, 0)
    ideal = compressed_complex_ideal(alpha)
    assert tuple(alpha_of_quotient(ideal)) == alpha
    r = hdepth_report(ideal)
    assert r.profile.q == 7
    assert r.beta_triangle_quotient[7] == (1, 2, 0, 0, 0, 0, 0, 0)
    assert _verdict(r, "lemma79") == ""

    # principal at n = 9 has q = 8: not applicable
    principal = parse_ideal("*".join(f"x{i}" for i in range(1, 10)), 9)
    assert _verdict(hdepth_report(principal), "lemma79") is None


def test_witness_structure_on_forced_failure():
    r = hdepth_report(parse_ideal("x1*x2, x2*x3", 3))
    broken = r._replace(profile=r.profile._replace(h_ideal=0))
    verdict = _verdict(broken, "main")
    assert verdict
    w = _witness(broken, "main", verdict)
    assert w["check"] == "main" and w["n"] == 3
    assert w["ideal"] == "x1*x2, x2*x3"
    assert "hdepth(I) = 0" in w["violated"]
    assert w["alpha_quotient"] == [1, 3, 1, 0]


def test_witness_from_ideal_none_when_passing():
    assert witness_from_ideal(parse_ideal("x1*x2", 2), "main") is None


# the first failing n = 9 prefix at q = 6 and at q = 7
N9_Q6_ALPHA, N9_Q7_ALPHA = N9_FAILING_ALPHAS[0], N9_FAILING_ALPHAS[10]


def _record_of_both_paths(ideal):
    """run_checks' (Profile, verdicts) on the ideal's report, asserted equal
    to evaluate_profile's on its alpha vector."""
    r = hdepth_report(ideal)
    record = evaluate_profile(tuple(r.alpha_quotient))
    assert run_checks(r) == record, ideal
    return record


def test_evaluate_profile_matches_rich_checkers_exhaustive():
    for n in range(1, 5):
        for ideal in enumerate_ideals(n):
            _record_of_both_paths(ideal)
    # seeded samples, where q = 7 profiles put beta47-bound on its gate
    at_q7 = 0
    for n in range(7, 15):
        for i in range(200):
            profile, _ = _record_of_both_paths(random_ideal(n, sample_rng(11, n, i)))
            at_q7 += profile.q == 7
    assert at_q7 == 244
    for alpha in N9_FAILING_ALPHAS:
        profile, verdicts = _record_of_both_paths(compressed_complex_ideal(alpha))
        # main and one cap check fail together, on the one cap cell
        failing = {name: v for name, v in zip(CHECK_ORDER, verdicts) if v}
        cap_check, cell = (("q6-bounds", "b_5^6 = 22 > 21") if profile.q == 6
                           else ("lemma79", "b_6^7 = 8 > 7"))
        assert set(failing) == {"main", cap_check}, alpha
        assert failing[cap_check] == cell


def test_cap_checks_restate_main_on_every_profile_n7_n8():
    # by b_k^q(I) = b_k^q(S) - b_k^q(S/I), q6-bounds and lemma79 fail on their
    # gates exactly when main fails, and bound-equivalence never fails; main
    # itself passes on every realizable profile, so no prefix fails at n = 7, 8
    counts = {}
    for n in (7, 8):
        profiles = realizable_profiles(n)
        q6_applicable = 0
        for alpha in profiles:
            v = dict(zip(CHECK_ORDER, evaluate_profile(alpha)[1]))
            assert v["main"] == "", alpha
            if v["q6-bounds"] is not None:
                q6_applicable += 1
                assert bool(v["q6-bounds"]) == bool(v["main"]), alpha
            assert v["lemma79"] is None
            assert not v["bound-equivalence"], alpha
        counts[n] = (len(profiles), q6_applicable)
    assert counts == {7: (5459, 0), 8: (100707, 938)}


def test_realizable_walk_yields_exactly_the_census_profiles(census6):
    # the Kruskal-Katona walk and the downset census check each other
    total = 0
    for n in range(1, 7):
        profiles = realizable_profiles(n)
        assert sorted(profiles) == sorted(census6 if n == 6 else alpha_census(n)), n
        total += len(profiles)
    assert total == 681


def test_beta_nodes_complete_to_exactly_the_census_prefixes_with_beta_nonnegative(census6):
    # the nodes every scan reads, each a_Q of their intervals appended, are
    # exactly the census prefixes (a_0, ..., a_Q) with b^Q(S/I) >= 0, and a
    # node's cells and rest_Q give that row
    for n in range(1, 7):
        census = census6 if n == 6 else alpha_census(n)
        for Q in range(1, n):
            walked = {prefix + (a,): cells + (a + rest,)
                      for prefix, cells, rest, lo, hi in beta_nodes(n, Q)
                      for a in range(lo, hi + 1)}
            rows = {alpha[:Q + 1]: beta_values(alpha, Q) for alpha in census}
            assert walked == {p: row for p, row in rows.items() if min(row) >= 0}, (n, Q)


def test_exact_prefix_scan_finds_exactly_the_n9_failures():
    # every realizable prefix at every level 1 <= Q < n, for every a_1: none
    # fails below n = 9, and at n = 9 exactly the 12 pinned ones do
    for n in range(1, 9):
        assert failing_prefixes(n) == [], n
    assert failing_prefixes(9) == N9_FAILING_ALPHAS


def test_exact_prefix_scan_at_n10_fails_only_beta47():
    # every failing n = 10 prefix has a_1 = 10 (I inside m^2) and sits at
    # q = 7 or 8, so main's gate (q <= 6 or n <= 9) excludes all of them;
    # 510 fail the beta47 search target on its cell k = 4
    prefixes = failing_prefixes(10)
    assert len(prefixes) == 3884
    assert {alpha[1] for alpha in prefixes} == {10}
    records = [evaluate_profile(alpha) for alpha in prefixes]
    depths = Counter((profile.q, profile.h_ideal) for profile, _ in records)
    assert depths == {(7, 6): 3861, (8, 7): 23}
    assert all(profile.in_m2 for profile, _ in records)
    verdicts = [dict(zip(CHECK_ORDER, v)) for _, v in records]
    assert all(v["main"] is None for v in verdicts)
    assert {name for v in verdicts for name, verdict in v.items() if verdict} == {"beta47-bound"}
    beta47 = [alpha for alpha, v in zip(prefixes, verdicts) if v["beta47-bound"]]
    assert len(beta47) == 510
    assert beta47[0] == (1, 10, 45, 112, 182, 195, 120, 31, 0, 0, 0)
    witness = witness_from_ideal(compressed_complex_ideal(beta47[0]), "beta47-bound")
    assert witness["violated"] == "b_4^7 = 19 > 15"
    assert witness["alpha_quotient"] == list(beta47[0])
    assert (witness["hdepth_quotient"], witness["hdepth_ideal"]) == (7, 6)


def test_exact_prefix_scan_at_n11_no_prefix_fails_up_to_q6():
    # the q <= 6 half of main at n = 11: no realizable prefix at any level
    # 1 <= Q <= 6, over every a_1, has hdepth(S/I) >= Q > hdepth(I)
    assert failing_prefixes(11, range(1, 7)) == []


# M(n, Q, k) for k = 0..Q, the largest b_k^Q(S/I) over realizable prefixes
# with b^Q >= 0, and the cells k where it exceeds the cap C(n-Q+k-1, k); the
# (11, 6) row is the cap itself
SHARP_ROWS = {
    (8, 6): ((1, 2, 3, 4, 5, 6, 7), []),
    (9, 5): ((1, 4, 10, 20, 35, 56), []),
    (10, 6): ((1, 4, 10, 20, 35, 56, 84), []),
    (9, 6): ((1, 3, 6, 10, 15, 22, 28), [5]),
    (9, 7): ((1, 2, 3, 4, 5, 6, 8, 8), [6]),
    (10, 7): ((1, 3, 6, 10, 19, 28, 35, 36), [4, 5, 6]),
    (10, 8): ((1, 2, 3, 4, 5, 6, 10, 10, 9), [6, 7]),
    (11, 6): ((1, 5, 15, 35, 70, 126, 210), []),
}


def test_sharp_rows_up_to_n10():
    # S's own prefix reaches every cap cell, so each row is at least the cap;
    # it exceeds the cap only where a failing prefix does
    for (n, Q), (row, over) in SHARP_ROWS.items():
        cap = ring_beta_row(n, Q)
        assert sharp_row(n, Q) == list(row), (n, Q)
        assert all(m >= c for m, c in zip(row, cap))
        assert [k for k in range(Q + 1) if row[k] != cap[k]] == over, (n, Q)
    # the two n = 9 over-cap cells are those of the pinned failing prefixes
    assert beta_values(N9_FAILING_ALPHAS[0], 6)[5] == 22
    assert beta_values(N9_FAILING_ALPHAS[10], 7)[6] == 8


# the prefixes (a_0, ..., a_k) other than S's own that complete to b^6 >= 0
# and whose cell b_k^6 reaches the cap, with how far it is over: none at n = 7
# or 11, and none at level 6
NEAR_CAP_Q6 = {
    7: {},
    8: {(1, 8, 28, 56, 65, 46): 0},
    9: {(1, 9, 36, 77, 105): 0, (1, 9, 36, 82, 105, 90): 0, (1, 9, 36, 82, 105, 91): 1},
    10: {(1, 10, 36, 84): 0, (1, 10, 41, 84, 126): 0, (1, 10, 45, 120, 182, 196): 0},
    11: {},
}


def test_near_cap_prefixes_at_q6_up_to_n10():
    for n, excess in NEAR_CAP_Q6.items():
        assert near_cap_prefixes(n, 6) == sorted(excess), n
        for prefix, over in excess.items():
            k = len(prefix) - 1
            cell = beta_values(prefix + (0,) * (n + 1 - len(prefix)), 6)[k]
            assert cell - ring_beta_row(n, 6)[k] == over, prefix


# one beta47-bound witness prefix (a_0, ..., a_7) per n, the cell k = 4 it
# violates, and its cap C(n-4, 4)
BETA47_WITNESS_PREFIXES = {
    11: ((1, 11, 55, 148, 266, 322, 266, 148), "b_4^7 = 39 > 35"),
    12: ((1, 12, 66, 187, 365, 497, 483, 337), "b_4^7 = 72 > 70"),
    13: ((1, 13, 78, 235, 515, 807, 930, 793), "b_4^7 = 130 > 126"),
    14: ((1, 14, 91, 293, 719, 1288, 1716, 1716), "b_4^7 = 212 > 210"),
}


@pytest.mark.parametrize("n", sorted(BETA47_WITNESS_PREFIXES))
def test_beta47_witness_prefix_realizes_and_reverifies(n):
    prefix, violated = BETA47_WITNESS_PREFIXES[n]
    alpha = prefix + (0,) * (n + 1 - len(prefix))
    witness = witness_from_ideal(compressed_complex_ideal(alpha), "beta47-bound")
    assert witness["violated"] == violated
    assert (witness["hdepth_quotient"], witness["hdepth_ideal"]) == (7, 6)
    assert witness["in_m2"] and not witness["principal"]
    assert witness["n"] == n and witness["alpha_quotient"] == list(alpha)


def test_witness_reads_its_verdict_off_run_checks():
    # on every ideal for n <= 4 and the 12 failing n = 9 complexes, each
    # check's witness is None exactly when run_checks' verdict is falsy, and
    # otherwise carries that verdict
    ideals = [ideal for n in range(1, 5) for ideal in enumerate_ideals(n)]
    ideals += [compressed_complex_ideal(alpha) for alpha in N9_FAILING_ALPHAS]
    failed = Counter()
    for ideal in ideals:
        verdicts = run_checks(hdepth_report(ideal))[1]
        for name, verdict in zip(CHECK_ORDER, verdicts):
            witness = witness_from_ideal(ideal, name)
            if not verdict:
                assert witness is None, (ideal, name)
            else:
                assert witness["check"] == name and witness["violated"] == verdict
                failed[name] += 1
    assert failed == {"main": 12, "q6-bounds": 10, "lemma79": 2}
    with pytest.raises(ValueError, match="unknown predicate 'no-such-check'"):
        witness_from_ideal(ideals[0], "no-such-check")


def test_report_holds_the_profile_run_checks_returns():
    # one depth record on both paths: a report is its ideal, both alpha
    # vectors and the Profile its walks read, run_checks returns that very
    # Profile, and only hdepth_report and evaluate_profile build one
    assert HdepthReport._fields == ("ideal", "alpha_quotient", "alpha_ideal", "profile")
    for ideal in [ideal for n in range(1, 4) for ideal in enumerate_ideals(n)]:
        r = hdepth_report(ideal)
        assert run_checks(r)[0] is r.profile
        assert type(r.profile) is Profile is depth.Profile
    defined, builders = set(), set()
    for path in Path(depth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "Profile":
                defined.add(path.name)
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and "Profile" in ast.unparse(call.func).split(".")
                    for call in ast.walk(node)):
                builders.add((path.name, node.name))
    assert defined == {"depth.py"}
    assert builders == {("depth.py", "hdepth_report"), ("theorems.py", "evaluate_profile")}


def test_profile_reads_n_off_the_alpha_vector():
    profile, verdicts = evaluate_profile((1, 3, 2, 0))
    assert profile.n == 3
    assert (profile, verdicts) == run_checks(hdepth_report(parse_ideal("x2*x3", 3)))


def test_alpha_entries_outside_their_binomial_range_are_refused():
    # a_j must lie in [0, C(n, j)]: the packed walk's field width assumes it
    for alpha, entry in (((1, 4, 2, 0), "a_1 = 4 is outside [0, C(3, 1) = 3]"),
                         ((1, 3, 9, 0), "a_2 = 9 is outside [0, C(3, 2) = 3]"),
                         ((1, 3, -1, 0), "a_2 = -1 is outside [0, C(3, 2) = 3]"),
                         ((1, 9, 36, 82, 105, 91, 40, 0, 0, 2), "a_9 = 2 is outside")):
        for evaluate in (hdepth_pair, evaluate_profile):
            with pytest.raises(DomainError, match=re.escape(f"alpha entry {entry}")):
                evaluate(alpha)


def _lookup_agrees(n, alpha_sf):
    expected = principal_alpha_profile(n, complement_counts(alpha_sf))
    assert (alpha_sf in _principal_profiles(n)) == expected, (n, alpha_sf)
    assert evaluate_profile(alpha_sf)[0].principal == expected, (n, alpha_sf)
    return expected


def test_principal_lookup_matches_alpha_profile_test(census6):
    # every census profile for n <= 6
    for n in range(1, 7):
        census = census6 if n == 6 else alpha_census(n)
        assert sum(_lookup_agrees(n, alpha) for alpha in census) == n
    # the n principal profiles, one per generator degree, for n <= 14
    for n in range(1, 15):
        assert len(_principal_profiles(n)) == n
        for d in range(1, n + 1):
            ideal = Ideal(n, ((1 << d) - 1,))
            assert _lookup_agrees(n, tuple(alpha_of_quotient(ideal)))
    # seeded samples, where the generator count says the same
    principal = 0
    for n in range(7, 15):
        for i in range(200):
            ideal = random_ideal(n, sample_rng(11, n, i))
            alpha = tuple(alpha_of_quotient(ideal))
            assert _lookup_agrees(n, alpha) == (len(ideal.gens) == 1), (n, i)
            principal += len(ideal.gens) == 1
    assert principal > 0


def test_n9_q6_counterexample_pinned():
    ideal = compressed_complex_ideal(N9_Q6_ALPHA)
    common = {
        "n": 9,
        "ideal": "x6*x8*x9, x7*x8*x9, x1*x2*x8*x9, x1*x3*x8*x9, x2*x3*x8*x9, "
                 "x1*x4*x8*x9, x2*x4*x8*x9, x3*x4*x8*x9, x1*x5*x8*x9, x2*x5*x8*x9, "
                 "x3*x5*x8*x9, x4*x5*x8*x9, x1*x2*x4*x6*x7*x9, x1*x3*x4*x6*x7*x9, "
                 "x2*x3*x4*x6*x7*x9, x1*x2*x5*x6*x7*x9, x1*x3*x5*x6*x7*x9, "
                 "x2*x3*x5*x6*x7*x9, x1*x4*x5*x6*x7*x9, x2*x4*x5*x6*x7*x9, "
                 "x3*x4*x5*x6*x7*x9, x1*x2*x3*x4*x5*x6*x7, x1*x2*x3*x4*x5*x6*x8, "
                 "x1*x2*x3*x4*x5*x7*x8, x1*x2*x3*x4*x6*x7*x8, x1*x2*x3*x5*x6*x7*x8, "
                 "x1*x2*x4*x5*x6*x7*x8, x1*x3*x4*x5*x6*x7*x8, x2*x3*x4*x5*x6*x7*x8, "
                 "x1*x2*x3*x4*x5*x6*x9, x1*x2*x3*x4*x5*x7*x9",
        "alpha_quotient": [1, 9, 36, 82, 105, 91, 40, 0, 0, 0],
        "alpha_ideal": [0, 0, 0, 2, 21, 35, 44, 36, 9, 1],
        "hdepth_quotient": 6,
        "hdepth_ideal": 5,
        "beta_quotient_at_q": [1, 3, 6, 8, 0, 22, 0],
        "principal": False,
        "in_m2": True,
    }
    assert witness_from_ideal(ideal, "main") == dict(
        common, check="main", violated="hdepth(I) = 5 < hdepth(S/I) = 6")
    assert witness_from_ideal(ideal, "q6-bounds") == dict(
        common, check="q6-bounds", violated="b_5^6 = 22 > 21")
    for name in ("principal-equivalence", "bound-equivalence", "lemma79", "beta47-bound"):
        assert witness_from_ideal(ideal, name) is None


def test_n9_q7_counterexample_pinned():
    ideal = compressed_complex_ideal(N9_Q7_ALPHA)
    common = {
        "n": 9,
        "ideal": "x4*x7*x8*x9, x5*x7*x8*x9, x6*x7*x8*x9, x1*x2*x7*x8*x9, "
                 "x1*x3*x7*x8*x9, x2*x3*x7*x8*x9, x2*x3*x4*x5*x6*x8*x9, "
                 "x1*x2*x3*x4*x5*x6*x7*x8, x1*x2*x3*x4*x5*x6*x7*x9",
        "alpha_quotient": [1, 9, 36, 84, 123, 111, 64, 20, 0, 0],
        "alpha_ideal": [0, 0, 0, 0, 3, 15, 20, 16, 9, 1],
        "hdepth_quotient": 7,
        "hdepth_ideal": 6,
        "beta_quotient_at_q": [1, 2, 3, 4, 2, 0, 8, 0],
        "principal": False,
        "in_m2": True,
    }
    assert witness_from_ideal(ideal, "main") == dict(
        common, check="main", violated="hdepth(I) = 6 < hdepth(S/I) = 7")
    assert witness_from_ideal(ideal, "lemma79") == dict(
        common, check="lemma79", violated="b_6^7 = 8 > 7")
    for name in ("principal-equivalence", "bound-equivalence", "q6-bounds", "beta47-bound"):
        assert witness_from_ideal(ideal, name) is None


def test_run_checks_default_set():
    _, verdicts = run_checks(hdepth_report(parse_ideal("x1*x2", 3)))
    assert len(verdicts) == len(CHECK_ORDER)
    assert VERIFY_CHECKS == CHECK_ORDER[:len(VERIFY_CHECKS)]


# --- published tables ------------------------------------------------------------

def test_bound_tables_reproduce_exactly():
    assert reproduce_bound_tables() == []


def test_bound_table_spot_cells():
    # q=6,k=4 family at multiplier 3
    assert binom_diff(3, 4, 7) == -70
    assert binom_diff(3, 4, 15) == 0
    assert binom_diff(3, 3, 7) == -28  # its k=3 companion row
    assert binom_diff(3, 2, 7) == 0    # its k=2 companion row
    # q=6,k=5 family at multiplier 2
    assert binom_diff(2, 5, 11) == -198
    # q=7,k=7 family at multiplier 1
    assert binom_diff(1, 7, 9) == -48


def test_alpha2_window_rows():
    # the a_2 -> (min a_3, max a_3, cap) companion table recomputes from the
    # beta constraint and the upper shadow bound
    from hilbertdepth.theorems import _alpha2_window_computed

    got = _alpha2_window_computed()
    assert got["min_alpha3"] == (65, 70, 75, 80)
    assert got["max_alpha3"] == (66, 71, 77, 84)
    assert got["max_6a3_minus_10a2"] == (66, 86, 112, 144)


def test_beta47_check_is_search_only():
    # it exists in the registry but not in the verification set, and it is
    # inapplicable wherever q != 7
    r = hdepth_report(parse_ideal("x1*x2", 2))
    assert _verdict(r, "beta47-bound") is None


def test_cap_row_is_the_beta_row_of_s():
    # the row every cap check reads, against the beta transform of alpha(S)
    for n in range(21):
        for d in range(n + 1):
            assert ring_beta_row(n, d) == beta_values(binom_row(n), d), (n, d)
    # the caps the checks name
    assert ring_beta_row(9, 7)[3:] == (4, 5, 6, 7, 8)  # lemma79: k + 1
    for n in range(7, 21):
        assert ring_beta_row(n, 6)[3:7] == (binom(n - 4, 3), binom(n - 3, 4),
                                            binom(n - 2, 5), binom(n - 1, 6))
        assert ring_beta_row(n, 7)[4] == binom(n - 4, 4)


def test_every_cap_cell_is_read():
    # realizable profiles fail only k = 5 at q = 6 and k = 6 at q = 7, so each
    # (check, k) gets a hand-built Profile: the row of S, which meets every
    # cap, with only cell k raised by 1
    cells = ([("q6-bounds", n, 6, k) for n in (7, 9, 12) for k in range(3, 7)]
             + [("lemma79", 9, 7, k) for k in range(3, 8)]
             + [("beta47-bound", n, 7, 4) for n in (8, 10, 14)]
             + [("bound-equivalence", n, q, k)
                for n in (9, 10) for q in range(3, n) for k in range(3, q + 1)])
    for name, n, q, k in cells:
        cap = ring_beta_row(n, q)
        raised = cap[:k] + (cap[k] + 1,) + cap[k + 1:]
        # h_ideal = q, nonprincipal, inside m^2: every gate holds
        plain, over = (PREDICATES[name](Profile(n, q, q, False, True, row))
                       for row in (cap, raised))
        assert plain == "", (name, n, q, k)
        if name == "bound-equivalence":  # its verdict names the disagreement, not the cell
            assert over == f"hdepth(I) >= {q} is True but the beta bound test gives False"
        else:
            assert f"b_{k}^{q} = {cap[k] + 1} > " in over, (name, n, q, k, over)


def test_beta47_witness_exists_and_roundtrips():
    # the level-7 bound genuinely fails beyond the covered regimes: this
    # complex on 10 vertices (first a_j faces of each level in colex order)
    # has depth exactly 7 and b_4^7 = 19 > C(6,4) = 15
    alpha = (1, 10, 45, 112, 182, 195, 120, 31, 0, 0, 0)
    ideal = compressed_complex_ideal(alpha)
    witness = witness_from_ideal(ideal, "beta47-bound")
    assert witness is not None
    assert witness["violated"] == "b_4^7 = 19 > 15"
    assert witness["hdepth_quotient"] == 7
    # the witness re-parses and re-verifies to the same outcome
    reparsed = parse_ideal(witness["ideal"], witness["n"])
    again = witness_from_ideal(reparsed, "beta47-bound")
    assert again is not None
    assert again["violated"] == witness["violated"]
    assert again["alpha_quotient"] == witness["alpha_quotient"]
    # consistently, the depth comparison fails here and bound-equivalence
    # predicts exactly that
    assert witness["hdepth_ideal"] == 6 < 7
    assert not _verdict(hdepth_report(reparsed), "bound-equivalence")
