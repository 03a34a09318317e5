"""Enumeration, sampling, the verification harness, and search."""

import hashlib
from collections import Counter
from itertools import accumulate, combinations

import pytest

from hilbertdepth import corpus
from hilbertdepth.corpus import (EnumerationPlan, PROPER_IDEAL_COUNTS,
                                 alpha_census, compressed_complex_ideal,
                                 default_degree_weights,
                                 enumerate_downsets, enumerate_ideals,
                                 find_ideal_with_alpha, random_gen_masks,
                                 random_ideal,
                                 run_verification, sample_rng,
                                 search_counterexample)
from hilbertdepth.errors import CapacityError
from hilbertdepth.ideals import alpha_of_quotient, minimalize, parse_ideal


def brute_force_downset_count(n):
    """All downward-closed families of nonempty subsets, by direct filtering.

    Feasible through n = 4 (2^15 families); counts downsets containing the
    empty set, i.e. proper ideals, including the zero ideal.
    """
    subsets = list(range(1, 1 << n))
    count = 0
    for pick in range(1 << len(subsets)):
        family = {subsets[i] for i in range(len(subsets)) if pick >> i & 1}
        if all(all((m & ~s == 0) <= (m in family or m == 0)
                   for m in range(1 << n)) for s in family):
            # downward closed: every nonempty subset of a member is a member
            count += 1
    return count


def level_dp_downset_count(n):
    """Independent downset counter: DP over degree levels keyed by the
    level family itself (different algorithm and state than the enumerator)."""
    by_degree = [[] for _ in range(n + 1)]
    for m in range(1, 1 << n):
        by_degree[m.bit_count()].append(m)
    states = {frozenset(): 1}  # previous-level family -> count
    for d in range(1, n + 1):
        nxt: dict[frozenset, int] = {}
        for prev, cnt in states.items():
            if d == 1:
                allowed = by_degree[1]
            else:
                allowed = [m for m in by_degree[d]
                           if all((m ^ (1 << b)) in prev
                                  for b in range(n) if m >> b & 1)]
            for pick in range(1 << len(allowed)):
                fam = frozenset(allowed[i] for i in range(len(allowed)) if pick >> i & 1)
                nxt[fam] = nxt.get(fam, 0) + cnt
        states = nxt
    return sum(states.values())


def test_counts_match_independent_oracles():
    # direct filtering through n = 3 (n = 4 is 2^15 families but slow in the
    # doubly-quantified check, so use the level DP there)
    for n in (1, 2, 3):
        assert brute_force_downset_count(n) - 1 == PROPER_IDEAL_COUNTS[n]
    for n in (1, 2, 3, 4, 5):
        assert level_dp_downset_count(n) - 1 == PROPER_IDEAL_COUNTS[n]
        assert sum(alpha_census(n).values()) == PROPER_IDEAL_COUNTS[n]


def test_enumerate_small_cases():
    assert [str(i) for i in enumerate_ideals(1)] == ["x1"]
    got = {str(i) for i in enumerate_ideals(2)}
    assert got == {"x1", "x2", "x1, x2", "x1*x2"}


def test_enumeration_no_duplicates_and_invariants():
    for n in range(1, 5):
        seen = set()
        for ideal in enumerate_ideals(n):
            assert ideal not in seen
            seen.add(ideal)
            assert not ideal.is_zero and not ideal.is_unit
            gens = ideal.gen_masks
            for a in gens:
                for b in gens:
                    if a != b:
                        assert a & ~b != 0, "not an antichain"
        assert len(seen) == PROPER_IDEAL_COUNTS[n]


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        next(enumerate_ideals(7))


def test_census_matches_materialized_alpha():
    for n in range(1, 6):
        direct = Counter(tuple(alpha_of_quotient(i)) for i in enumerate_ideals(n))
        assert alpha_census(n) == direct


def test_census_n6_digest():
    # the whole n = 6 Counter, as computed by the chunked DFS census that the
    # memoized one replaced
    census = alpha_census(6)
    digest = hashlib.sha256(repr(sorted(census.items())).encode()).hexdigest()
    assert digest == "0fc64a767915a93fd7f752bc8122ac98b6ef14e6d2ee7f1526616db39a349bdf"


def test_downsets_are_closed_families():
    # read each leaf through its own table of the degree-d masks (ascending),
    # not through the walker's facet tables
    for n in range(1, 5):
        level_masks = [[m for m in range(1, 1 << n) if bin(m).count("1") == d]
                       for d in range(n + 1)]
        families = set()
        for leaf in enumerate_downsets(n):
            assert len(leaf) == n and leaf[n - 1] == 0  # level n is empty
            faces = {0} | {m for d in range(1, n + 1)
                           for i, m in enumerate(level_masks[d]) if leaf[d - 1] >> i & 1}
            for m in faces:
                # downward closed: every facet of a selected face is selected
                assert all(m ^ (1 << b) in faces for b in range(n) if m >> b & 1), (n, leaf)
            families.add(frozenset(faces))
        assert len(families) == PROPER_IDEAL_COUNTS[n]


# --- random generation -------------------------------------------------------

def test_random_ideal_deterministic():
    a = random_ideal(9, sample_rng(42, 9, 17))
    b = random_ideal(9, sample_rng(42, 9, 17))
    assert a == b
    draws = {str(random_ideal(9, sample_rng(42, 9, i))) for i in range(50)}
    assert len(draws) > 40  # distinct indices give (almost always) distinct ideals


def stdlib_gen_masks(n, rng):
    """Reference: the draws of ``random_gen_masks`` through the stdlib wrappers."""
    weights = default_degree_weights(n)
    degrees = tuple(sorted(weights))
    cum = tuple(accumulate(weights[d] for d in degrees))
    g = rng.randint(1, 3 * n)
    masks = []
    for _ in range(g):
        d = rng.choices(degrees, cum_weights=cum)[0]
        mask = 0
        for v in rng.sample(range(n), d):
            mask |= 1 << v
        masks.append(mask)
    return minimalize(masks)


def test_random_gen_masks_matches_stdlib_draws():
    # equal generator states mean that both consumed the same words;
    # n = 22, 30, 40 reach sample's set path for degrees up to 5
    for n in [*range(2, 15), 22, 30, 40]:
        for seed in (0, 7, 42):
            for i in range(300 if n <= 14 else 50):
                fast, ref = sample_rng(seed, n, i), sample_rng(seed, n, i)
                assert random_gen_masks(n, fast) == stdlib_gen_masks(n, ref), (n, seed, i)
                assert fast.getstate() == ref.getstate(), (n, seed, i)


def test_random_ideal_invariants_fuzz():
    for i in range(3000):
        ideal = random_ideal(9, sample_rng(1, 9, i))
        assert not ideal.is_zero and not ideal.is_unit
        gens = ideal.gen_masks
        for a in gens:
            for b in gens:
                if a != b:
                    assert a & ~b != 0
        assert all(1 <= g.bit_count() <= 9 for g in gens)


def test_random_ideal_degree_concentration():
    n = 9
    hist = Counter()
    for i in range(20000):
        for g in random_ideal(n, sample_rng(3, n, i)).gen_masks:
            hist[g.bit_count()] += 1
    total = sum(hist.values())
    inside = sum(c for d, c in hist.items() if 2 <= d <= n - 2)
    assert inside / total > 0.8


def test_random_ideal_errors():
    with pytest.raises(ValueError):
        random_ideal(1, sample_rng(0, 1, 0))
    with pytest.raises(CapacityError):
        random_ideal(41, sample_rng(0, 41, 0))


def test_degree_weights_shape():
    w = default_degree_weights(9)
    assert set(w) == set(range(1, 10))
    assert w[4] > w[1] and w[4] > w[9]


# --- compressed complexes ------------------------------------------------------

def test_compressed_complex_realizes_alpha():
    alpha = (1, 9, 33, 65, 75, 51, 19, 3, 0, 0)
    ideal = compressed_complex_ideal(9, alpha)
    assert tuple(alpha_of_quotient(ideal)) == alpha
    # a non-closed family is rejected: 1 vertex cannot carry an edge
    with pytest.raises(ValueError):
        compressed_complex_ideal(3, (1, 1, 1, 0))


def test_find_ideal_with_alpha_realizes_every_census_profile():
    for n in range(1, 6):
        for alpha in alpha_census(n):
            assert tuple(alpha_of_quotient(find_ideal_with_alpha(n, alpha))) == alpha


# --- harness ----------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(CapacityError):
        EnumerationPlan(n=7, mode="exhaustive")
    with pytest.raises(CapacityError):
        EnumerationPlan(n=26, mode="random", sample_count=1, seed=1)  # beyond ALPHA_N_MAX
    EnumerationPlan(n=25, mode="random", sample_count=1, seed=1)
    with pytest.raises(ValueError):
        EnumerationPlan(n=5, mode="random", sample_count=0, seed=1)
    with pytest.raises(ValueError):
        EnumerationPlan(n=5, mode="random", sample_count=10)  # no seed
    with pytest.raises(ValueError):
        EnumerationPlan(n=5, mode="bogus")
    with pytest.raises(ValueError):
        EnumerationPlan(n=5, mode="exhaustive", workers=0)


def test_run_verification_exhaustive_small():
    summary = run_verification(EnumerationPlan(n=4, mode="exhaustive"))
    assert summary.scanned == PROPER_IDEAL_COUNTS[4]
    assert summary.total_failures == 0
    assert summary.witnesses == []
    assert summary.checks["main"].applicable == summary.scanned
    assert summary.checks["principal-equivalence"].applicable == summary.scanned
    assert sum(summary.q_histogram.values()) == summary.scanned


def test_run_verification_random_small():
    plan = EnumerationPlan(n=7, mode="random", sample_count=1500, seed=99)
    summary = run_verification(plan)
    assert summary.scanned == 1500
    assert summary.total_failures == 0
    assert summary.seed == 99


def test_run_verification_worker_count_invariance():
    base = run_verification(EnumerationPlan(n=7, mode="random", sample_count=2200, seed=5))
    multi = run_verification(EnumerationPlan(n=7, mode="random", sample_count=2200, seed=5,
                                             workers=2))
    assert {k: vars(v) for k, v in base.checks.items()} == \
           {k: vars(v) for k, v in multi.checks.items()}
    assert base.q_histogram == multi.q_histogram
    assert base.distinct_profiles == multi.distinct_profiles


def test_run_verification_exhaustive_worker_invariance():
    base = run_verification(EnumerationPlan(n=5, mode="exhaustive"))
    multi = run_verification(EnumerationPlan(n=5, mode="exhaustive", workers=2))
    assert {k: vars(v) for k, v in base.checks.items()} == \
           {k: vars(v) for k, v in multi.checks.items()}


def test_each_profile_evaluated_once(monkeypatch):
    calls = []
    real = corpus.evaluate_profile

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(corpus, "evaluate_profile", counting)
    # one 2,000-sample task: its outcomes reach the tally without a re-evaluation
    sampled = run_verification(EnumerationPlan(n=7, mode="random", sample_count=2000, seed=5))
    assert len(calls) == sampled.distinct_profiles
    calls.clear()
    census = run_verification(EnumerationPlan(n=4, mode="exhaustive"))
    assert len(calls) == census.distinct_profiles == 24
    for summary in (sampled, census):
        assert summary.lem_gate_excluded == (
            summary.scanned - summary.checks["bound-equivalence"].applicable)


def test_search_exhaustive_clean():
    report = search_counterexample(EnumerationPlan(n=4, mode="exhaustive"), "main")
    assert report.status == "none-exhaustive"
    assert report.witnesses == []
    assert report.instances_scanned == PROPER_IDEAL_COUNTS[4]


def test_search_random_inconclusive():
    plan = EnumerationPlan(n=9, mode="random", sample_count=1000, seed=13)
    report = search_counterexample(plan, "lemma79")
    assert report.status == "inconclusive"
    assert report.instances_scanned == 1000


def test_search_unknown_predicate():
    with pytest.raises(ValueError):
        search_counterexample(EnumerationPlan(n=4, mode="exhaustive"), "nope")
