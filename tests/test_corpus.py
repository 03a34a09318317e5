"""Enumeration, sampling, the verification harness, and search."""

import hashlib
from collections import Counter
from itertools import accumulate, combinations
from math import comb

import pytest

from hilbertdepth import corpus
from hilbertdepth.combinatorics import N_MAX, colex_mask
from hilbertdepth.corpus import (EnumerationPlan, PROPER_IDEAL_COUNTS,
                                 alpha_census, compressed_complex_ideal,
                                 default_degree_weights,
                                 enumerate_ideals,
                                 find_ideal_with_alpha, random_gen_masks,
                                 random_ideal,
                                 run_verification, sample_rng,
                                 search_counterexample, search_n_range)
from hilbertdepth.depth import hdepth_pair
from hilbertdepth.errors import CapacityError
from hilbertdepth.ideals import ALPHA_N_MAX, alpha_of_quotient, minimalize, parse_ideal
from hilbertdepth.theorems import evaluate_profile

from conftest import traced


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


def test_enumeration_order_n5():
    # the listing order is what the exhaustive CSV's bytes follow; the golden
    # digests pin it only at n = 4
    listing = "\n".join(map(str, enumerate_ideals(5)))
    digest = hashlib.sha256(listing.encode()).hexdigest()
    assert digest == "e5bc9e01a4fd68ea0bda8387c17b53607d4809e76736f566601ecf2eec67cf0c"


def test_enumeration_no_duplicates_and_invariants():
    for n in range(1, 5):
        seen = set()
        for ideal in enumerate_ideals(n):
            assert ideal not in seen
            seen.add(ideal)
            assert not ideal.is_zero and not ideal.is_unit
            gens = ideal.gens
            for a in gens:
                for b in gens:
                    if a != b:
                        assert a & ~b != 0, "not an antichain"
        assert len(seen) == PROPER_IDEAL_COUNTS[n]


def test_enumeration_capacity():
    # refused before any level table is built: n = 16's peaks at 50 MB traced
    for n in (7, 16):
        _, _, peak = traced(lambda: pytest.raises(CapacityError, next, enumerate_ideals(n)))
        assert peak < 1_000_000, n


def test_census_matches_materialized_alpha():
    for n in range(1, 6):
        direct = Counter(tuple(alpha_of_quotient(i)) for i in enumerate_ideals(n))
        assert alpha_census(n) == direct


def test_census_n6_digest(census6):
    # the whole n = 6 Counter, as computed by the chunked DFS census that the
    # memoized one replaced
    digest = hashlib.sha256(repr(sorted(census6.items())).encode()).hexdigest()
    assert digest == "0fc64a767915a93fd7f752bc8122ac98b6ef14e6d2ee7f1526616db39a349bdf"


def test_slice_tables_match_their_definition():
    # entry v of slice i's table: the level-d sets whose facets inside the
    # slice all lie in v, read from facet rows built here from the ascending
    # degree-d masks
    for n in range(1, 7):
        bits = corpus._SLICE_BITS
        levels = [[m for m in range(1 << n) if m.bit_count() == d] for d in range(n + 1)]
        for d in range(1, n + 1):
            size = len(levels[d - 1])
            facet_rows = [sum(1 << levels[d - 1].index(m ^ 1 << b) for b in range(n) if m >> b & 1)
                          for m in levels[d]]
            tables = corpus._slice_tables(n, d)
            assert len(tables) == -(-size // bits)
            for i, table in enumerate(tables):
                width = min(bits, size - bits * i)
                assert len(table) == 1 << width
                reqs = [req >> bits * i & (1 << width) - 1 for req in facet_rows]
                for v, entry in enumerate(table):
                    assert entry == sum(1 << j for j, req in enumerate(reqs)
                                        if req & ~v == 0), (n, d, i, v)


def test_downsets_are_closed_families():
    # each ideal's faces are the masks it does not contain, read by brute
    # force from its generators, not through the walker's tables
    for n in range(1, 5):
        families = set()
        listed = 0
        for ideal in enumerate_ideals(n):
            faces = frozenset(m for m in range(1 << n)
                              if all(g & ~m for g in ideal.gens))
            assert 0 in faces and (1 << n) - 1 not in faces, (n, ideal)
            for m in faces:
                # downward closed: every facet of a face is a face
                assert all(m ^ (1 << b) in faces for b in range(n) if m >> b & 1), (n, ideal)
            # the generators are exactly the minimal non-faces, by (degree, mask)
            minimal = sorted((m for m in range(1 << n) if m not in faces and
                              all(m ^ (1 << b) in faces for b in range(n) if m >> b & 1)),
                             key=lambda m: (m.bit_count(), m))
            assert list(ideal.gens) == minimal, (n, ideal)
            families.add(faces)
            listed += 1
        assert len(families) == listed == PROPER_IDEAL_COUNTS[n]


# --- random generation -------------------------------------------------------

def test_random_ideal_deterministic():
    a = random_ideal(9, sample_rng(42, 9, 17))
    b = random_ideal(9, sample_rng(42, 9, 17))
    assert a == b
    draws = {str(random_ideal(9, sample_rng(42, 9, i))) for i in range(50)}
    assert len(draws) > 40  # distinct indices give (almost always) distinct ideals


def stdlib_gen_masks(n, rng):
    """Reference: the draws of ``random_gen_masks`` through the stdlib wrappers,
    raw and in draw order."""
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
    return masks


def draw_grid():
    """(n, seed, sample index) triples; n = 21 is the last n at which
    ``random_gen_masks`` copies sample's pooled Fisher-Yates, and n >= 22 reach
    ``Random.sample`` itself: its set path for degrees up to 5 at n = 22, 25
    (ALPHA_N_MAX), 30 and 40."""
    for n in [*range(2, 15), 21, 22, 25, 30, 40]:
        for seed in (0, 7, 42):
            for i in range(300 if n <= 14 else 50):
                yield n, seed, i


def test_random_gen_masks_matches_stdlib_draws():
    # the raw draws, in draw order; equal generator states mean that both
    # consumed the same words
    for n, seed, i in draw_grid():
        fast, ref = sample_rng(seed, n, i), sample_rng(seed, n, i)
        assert random_gen_masks(n, fast) == stdlib_gen_masks(n, ref), (n, seed, i)
        assert fast.getstate() == ref.getstate(), (n, seed, i)


def test_random_ideal_is_the_minimalized_stdlib_draws():
    for n, seed, i in draw_grid():
        draws = stdlib_gen_masks(n, sample_rng(seed, n, i))
        assert random_ideal(n, sample_rng(seed, n, i)).gens == minimalize(draws), (n, seed, i)


def test_random_ideal_invariants_fuzz():
    for i in range(3000):
        ideal = random_ideal(9, sample_rng(1, 9, i))
        assert not ideal.is_zero and not ideal.is_unit
        gens = ideal.gens
        for a in gens:
            for b in gens:
                if a != b:
                    assert a & ~b != 0
        assert all(1 <= g.bit_count() <= 9 for g in gens)


def test_random_ideal_degree_concentration():
    n = 9
    hist = Counter()
    for i in range(20000):
        for g in random_ideal(n, sample_rng(3, n, i)).gens:
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
    ideal = compressed_complex_ideal(alpha)
    assert tuple(alpha_of_quotient(ideal)) == alpha
    # a non-closed family is rejected: 1 vertex cannot carry an edge
    with pytest.raises(ValueError):
        compressed_complex_ideal((1, 1, 1, 0))


def brute_force_compressed_gens(n, alpha):
    """Minimal non-faces, over all 2^n masks, of the complex whose level d is
    the first a_d colex (ascending-mask) d-sets; sorted by (degree, mask)."""
    faces = {0}
    for d in range(1, n + 1):
        faces.update([m for m in range(1 << n) if m.bit_count() == d][:alpha[d]])
    gens = [m for m in range(1, 1 << n) if m not in faces
            and all(m & ~(1 << v) in faces for v in range(n) if m >> v & 1)]
    return tuple(sorted(gens, key=lambda m: (m.bit_count(), m)))


def test_compressed_complex_matches_brute_force(census6):
    profiles = [(n, alpha) for n in range(1, 6) for alpha in alpha_census(n)]
    profiles += [(6, alpha) for alpha in census6]
    for n in range(7, 11):
        profiles += [(n, alpha_of_quotient(random_ideal(n, sample_rng(5, n, i))))
                     for i in range(40)]
    for n, alpha in profiles:
        assert compressed_complex_ideal(alpha).gens == \
            brute_force_compressed_gens(n, alpha), (n, alpha)


@pytest.mark.parametrize("alpha", [
    (1, 3, -1, 0, 0, 0),  # negative entry
    (1, 3, 3, 2, 0, 0),  # a_3 = 2 > KK^+(a_2 = 3) = 1: three edges bound one triangle
    (1, 5, 10, 10**12, 0, 0),  # huge middle entry: no range or mask that long is built
    (1, 6, 0, 0, 0, 0),  # a_1 above n
])
def test_compressed_complex_rejects_out_of_range_entries(alpha, monkeypatch):
    # a range left unchecked fails after 1,000 unrankings instead of running away
    calls = []

    def counted(r, k):
        calls.append(r)
        assert len(calls) < 1000, "unranked past every valid range"
        return colex_mask(r, k)

    def rejected():
        with pytest.raises(ValueError, match="not realizable"):
            compressed_complex_ideal(alpha)

    monkeypatch.setattr(corpus, "colex_mask", counted)
    _, elapsed, peak = traced(rejected)
    assert elapsed < 0.5 and peak < 100_000


def test_compressed_complex_builds_no_level_table():
    # the level tables would hold all 2^16 masks: 5.3 s and 52 MB traced
    n = 16
    alpha = (1, n, comb(n, 2)) + (0,) * (n - 2)
    ideal, elapsed, peak = traced(lambda: compressed_complex_ideal(alpha))
    assert ideal.gens == tuple(m for m in range(1 << n) if m.bit_count() == 3)
    assert elapsed < 1 and peak < 2_000_000


def test_capacity_is_refused_before_any_walk(monkeypatch):
    # n is read off the vector's length and refused, naming it, before any
    # work: the self-check counts alpha over the 2^n lattice, and hdepth_pair's
    # tables read C(n, k)
    calls = []
    monkeypatch.setattr(corpus, "colex_mask", lambda r, k: calls.append(r))
    for n in (ALPHA_N_MAX + 1, N_MAX + 1):
        with pytest.raises(CapacityError, match=f"n={n} exceeds cap {ALPHA_N_MAX}"):
            compressed_complex_ideal((1, n) + (0,) * (n - 1))
    assert calls == []
    for evaluate in (hdepth_pair, evaluate_profile):
        with pytest.raises(CapacityError, match=f"n={N_MAX + 1} exceeds cap {N_MAX}"):
            evaluate((1,) + (0,) * (N_MAX + 1))


def test_find_ideal_with_alpha_realizes_every_census_profile():
    for n in range(1, 6):
        for alpha in alpha_census(n):
            assert tuple(alpha_of_quotient(find_ideal_with_alpha(alpha))) == alpha


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
    with pytest.raises(ValueError):
        EnumerationPlan(n=5, mode="exhaustive", seed=1)
    with pytest.raises(ValueError):
        EnumerationPlan(n=5, mode="exhaustive", sample_count=10)


def test_plan_is_immutable_and_replace_checks():
    plan = EnumerationPlan(n=5, mode="exhaustive")
    with pytest.raises(AttributeError):
        plan.workers = 2
    assert plan._replace(workers=2) == EnumerationPlan(n=5, mode="exhaustive", workers=2)
    with pytest.raises(ValueError):
        plan._replace(workers=0)
    with pytest.raises(ValueError):
        plan._replace(mode="random")  # no seed, no samples


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
    assert summary.plan.seed == 99


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


def test_sample_keys_count_distinct_report_alphas():
    # one 2,000-sample task keys on alpha(S/I) alone; count its distinct
    # profiles again through Ideal objects and the report path's alpha_vector
    n, seed, samples = 8, 3, 2000
    summary = run_verification(EnumerationPlan(n=n, mode="random", sample_count=samples,
                                               seed=seed))
    alphas = {tuple(alpha_of_quotient(random_ideal(n, sample_rng(seed, n, i))))
              for i in range(samples)}
    assert summary.distinct_profiles == len(alphas)


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


def test_search_status_is_read_off_witnesses_and_mode():
    plans = (EnumerationPlan(9, "random", 1, 42),)
    found = corpus.SearchReport("main", plans, 1, [{"check": "main"}], 0.0)
    assert (found.n_values, found.mode, found.seed) == ((9,), "random", 42)
    assert found.status == "witnesses-found"
    assert found._replace(witnesses=[]).status == "inconclusive"
    exhaustive = (EnumerationPlan(4, "exhaustive"),)
    assert found._replace(witnesses=[], plans=exhaustive).status == "none-exhaustive"


def test_search_n_range_refuses_an_empty_range():
    # an exhaustive search over no n would report none-exhaustive over no corpus
    for plans in ([], (), iter([])):
        with pytest.raises(ValueError, match="at least one n"):
            search_n_range(plans, "main", 1)


def test_random_plan_parts_are_its_sample_tasks():
    parts, realize = EnumerationPlan(7, "random", 4500, 3).parts()
    assert [sum(p[0] for p in part.values()) for part in parts] == [2000, 2000, 500]
    for i in (0, 2999, 4499):
        assert realize(i) == (random_ideal(7, sample_rng(3, 7, i)), {"sample_index": i})


def test_exhaustive_plan_parts_are_the_census():
    parts, realize = EnumerationPlan(4, "exhaustive").parts()
    (part,) = parts
    census = alpha_census(4)
    assert {alpha: p[0] for alpha, p in part.items()} == census
    for alpha in census:
        assert realize(alpha) == (compressed_complex_ideal(alpha), {})


def test_search_unknown_predicate():
    with pytest.raises(ValueError):
        search_counterexample(EnumerationPlan(n=4, mode="exhaustive"), "nope")
