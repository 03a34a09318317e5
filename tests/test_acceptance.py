"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpus fixtures are
shared across criteria: the exhaustive runs (n <= 5 and n = 6) and the three
seeded 100k-sample runs (n = 7, 8, 9) are computed once.
"""

import random
import time
from math import comb

import pytest

from hilbertdepth.combinatorics import binom_diff, kk_lower_bound, kk_upper_bound, macaulay_rep
from hilbertdepth.corpus import (EnumerationPlan, PROPER_IDEAL_COUNTS,
                                 alpha_census, run_verification,
                                 search_n_range)
from hilbertdepth.depth import alpha_from_beta, beta_values
from hilbertdepth.ideals import parse_ideal
from hilbertdepth.theorems import reproduce_bound_tables, witness_from_ideal

from conftest import all_representations

SAMPLE_SEED = 42
SAMPLE_COUNT = 100_000
SEARCH_SEED = 7
SEARCH_BUDGET = 1_000_000
SEARCH_N_RANGE = (10, 11, 12, 13, 14)


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def small_exhaustive():
    t0 = time.monotonic()
    summaries = {n: run_verification(EnumerationPlan(n=n, mode="exhaustive"))
                 for n in range(1, 6)}
    return summaries, time.monotonic() - t0


@pytest.fixture(scope="module")
def n6_summary():
    return run_verification(EnumerationPlan(n=6, mode="exhaustive", workers=4))


@pytest.fixture(scope="module")
def sampled():
    return {n: run_verification(
        EnumerationPlan(n=n, mode="random", sample_count=SAMPLE_COUNT,
                        seed=SAMPLE_SEED, workers=2))
        for n in (7, 8, 9)}


def test_criterion_01_exhaustive_depth_comparison_small(small_exhaustive):
    summaries, elapsed = small_exhaustive
    counts_ok = all(summaries[n].scanned == PROPER_IDEAL_COUNTS[n] for n in summaries)
    failures = sum(s.checks["main"].failed for s in summaries.values())
    applicable = sum(s.checks["main"].applicable for s in summaries.values())
    ok = counts_ok and failures == 0 and applicable == sum(
        PROPER_IDEAL_COUNTS[n] for n in range(1, 6)) and elapsed < 10.0
    _line(1, ok,
          f"hdepth(I) >= hdepth(S/I) on all {applicable} ideals, n <= 5, "
          f"0 violations, {elapsed:.2f}s single-threaded (< 10s)")


def test_criterion_02_exhaustive_depth_comparison_n6(n6_summary):
    s = n6_summary
    ok = (s.scanned == PROPER_IDEAL_COUNTS[6]
          and s.checks["main"].failed == 0
          and s.checks["main"].applicable == s.scanned
          and max(s.q_histogram) <= 5  # proper ideals never reach q = n
          and s.plan.workers >= 4
          and s.elapsed < 600.0)
    _line(2, ok,
          f"n=6 exhaustive: {s.scanned} complexes, 0 violations, "
          f"{s.elapsed:.1f}s (< 600s), workers={s.plan.workers} requested; "
          "exhaustive runs use one process")


def test_n6_census_profiles(n6_summary):
    # the n = 6 census's profile count and hdepth(S/I) histogram are pinned
    # exactly; test_census_n6_digest pins its whole Counter
    assert n6_summary.distinct_profiles == 551
    assert n6_summary.q_histogram == {0: 1, 1: 3748, 2: 2719871, 3: 5038931,
                                      4: 65738, 5: 63}


def test_criterion_03_sampled_depth_comparison(sampled):
    details = []
    ok = True
    for n, s in sorted(sampled.items()):
        good = (s.scanned == SAMPLE_COUNT and s.checks["main"].failed == 0
                and s.plan.seed == SAMPLE_SEED)
        ok = ok and good
        details.append(f"n={n}: {s.scanned} samples seed={s.plan.seed} failures=0")
    # bit-reproducibility: an identical plan replays to identical tallies
    a = run_verification(EnumerationPlan(n=7, mode="random", sample_count=3000,
                                         seed=SAMPLE_SEED))
    b = run_verification(EnumerationPlan(n=7, mode="random", sample_count=3000,
                                         seed=SAMPLE_SEED, workers=2))
    replay = ({k: vars(v) for k, v in a.checks.items()}
              == {k: vars(v) for k, v in b.checks.items()}
              and a.q_histogram == b.q_histogram)
    ok = ok and replay
    _line(3, ok, "; ".join(details) + f"; replay identical={replay}")


def test_criterion_04_q6_bounds(small_exhaustive, n6_summary, sampled):
    summaries = list(small_exhaustive[0].values()) + [n6_summary] + list(sampled.values())
    applicable = sum(s.checks["q6-bounds"].applicable for s in summaries)
    failed = sum(s.checks["q6-bounds"].failed for s in summaries)
    ok = failed == 0 and applicable > 0
    _line(4, ok,
          f"q=6 beta bounds: {applicable} applicable instances, {failed} violations")


def test_criterion_05_q7_bounds_n9(small_exhaustive, n6_summary, sampled):
    summaries = list(small_exhaustive[0].values()) + [n6_summary] + list(sampled.values())
    applicable = sum(s.checks["lemma79"].applicable for s in summaries)
    failed = sum(s.checks["lemma79"].failed for s in summaries)
    ok = failed == 0 and applicable > 0
    _line(5, ok,
          f"n=9, q=7 bounds b_k^7 <= k+1: {applicable} applicable instances, "
          f"{failed} violations")


def test_criterion_06_bound_tables():
    diffs = reproduce_bound_tables()
    spot = (binom_diff(3, 4, 7) == -70 and binom_diff(3, 4, 15) == 0
            and binom_diff(2, 5, 11) == -198)
    ok = diffs == [] and spot
    _line(6, ok, f"published difference tables regenerate cell-for-cell "
                 f"({len(diffs)} diffs); f(7)=-70, f(15)=0, f5(11)=-198 confirmed")


def test_criterion_07_principal_equivalence(small_exhaustive, n6_summary):
    summaries = list(small_exhaustive[0].values()) + [n6_summary]
    applicable = sum(s.checks["principal-equivalence"].applicable for s in summaries)
    failed = sum(s.checks["principal-equivalence"].failed for s in summaries)
    total = sum(PROPER_IDEAL_COUNTS[n] for n in range(1, 7))
    ok = failed == 0 and applicable == total
    _line(7, ok,
          f"principal <=> hdepth(I)=n <=> hdepth(S/I)=n-1 on all {applicable} "
          f"ideals with n <= 6, {failed} violations")


def test_criterion_08_bound_equivalence(small_exhaustive, n6_summary, sampled):
    summaries = list(small_exhaustive[0].values()) + [n6_summary] + list(sampled.values())
    applicable = sum(s.checks["bound-equivalence"].applicable for s in summaries)
    failed = sum(s.checks["bound-equivalence"].failed for s in summaries)
    ok = failed == 0 and applicable > 0
    _line(8, ok,
          f"independent depth-vs-bounds routes agree on {applicable} applicable "
          f"instances, {failed} disagreements")


def test_criterion_09_inversion_fuzz():
    rng = random.Random(90210)
    bad = 0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        row = [comb(n, j) for j in range(n + 1)]
        a = tuple(rng.randint(0, row[j]) for j in range(n + 1))
        q = rng.randint(0, n)
        if alpha_from_beta(beta_values(a, q)) != a[: q + 1]:
            bad += 1
    _line(9, bad == 0, f"alpha->beta->alpha identity exact on 10000 fuzzed vectors "
                       f"({bad} mismatches)")


def test_criterion_10_macaulay_and_kk():
    # uniqueness against brute force for N <= 200, k <= 6
    unique_ok = all(
        all_representations(N, k) == [macaulay_rep(N, k).terms]
        for k in range(1, 7) for N in range(1, 201))

    # Kruskal-Katona consistency across every enumerated complex, n <= 5
    kk_ok = True
    checked = 0
    for n in range(2, 6):
        for alpha in alpha_census(n):
            checked += 1
            for k in range(1, n):
                if alpha[k] == 0:
                    kk_ok = kk_ok and alpha[k + 1] == 0
                    continue
                rep = macaulay_rep(alpha[k], k)
                kk_ok = kk_ok and alpha[k + 1] <= kk_upper_bound(rep)
                if k >= 2:
                    kk_ok = kk_ok and kk_lower_bound(rep) <= alpha[k - 1]
    ok = unique_ok and kk_ok
    _line(10, ok,
          f"representation uniqueness (N <= 200, k <= 6) by brute force; "
          f"shadow-bound consistency over {checked} distinct profiles, n <= 5")


def test_criterion_11_beta47_search():
    t0 = time.monotonic()
    plans = [EnumerationPlan(n, "random", SEARCH_BUDGET, SEARCH_SEED, workers=4)
             for n in SEARCH_N_RANGE]
    combined, reports = search_n_range(plans, "beta47-bound", 1)
    witnesses = combined.witnesses
    scanned = combined.instances_scanned
    elapsed = time.monotonic() - t0

    statuses = {r.status for r in reports}
    terminated = statuses <= {"witnesses-found", "inconclusive"}
    verified = True
    for w in witnesses:
        ideal = parse_ideal(w["ideal"], w["n"])
        verified = verified and witness_from_ideal(ideal, "beta47-bound") is not None
    result = ("verified witness found" if witnesses else
              f"inconclusive after {scanned} samples")
    ok = terminated and verified and (bool(witnesses) or scanned == SEARCH_BUDGET)
    _line(11, ok,
          f"beta_4^7 bound search over n in {list(SEARCH_N_RANGE)}, seed {SEARCH_SEED}: "
          f"{result} ({elapsed:.0f}s)")
