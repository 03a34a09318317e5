"""Early-stop behavior of the random search, exercised with injected outcomes.

No reachable corpus fails the real checks (that is the point of the suite), so
the witness-found branch is driven by monkeypatched evaluation.
"""

import itertools

import pytest

from hilbertdepth import corpus
from hilbertdepth.corpus import (EnumerationPlan, PROPER_IDEAL_COUNTS, random_gen_masks,
                                 random_ideal, sample_rng, search_counterexample,
                                 search_n_range)
from hilbertdepth.ideals import alpha_of_quotient, minimalize
from hilbertdepth.theorems import CHECK_ORDER, Profile

from conftest import traced


# a stand-in for the Profile the verdicts read; the harness takes only its q
_PROFILE = Profile(0, 0, 0, False, True, (1,))


def _always_failing(name):
    """An evaluate_profile stand-in under which only ``name`` applies, and fails."""
    pos = CHECK_ORDER.index(name)

    def evaluate(alpha_sf):
        verdicts = [None] * len(CHECK_ORDER)
        verdicts[pos] = "injected"
        return _PROFILE, tuple(verdicts)

    return evaluate


def _stub_witness(ideal, name):
    return {"check": name, "n": ideal.n, "ideal": str(ideal), "violated": "x"}


def test_search_stops_after_first_witness_chunk(monkeypatch):
    stub_calls = []

    def stub_witness(ideal, name):
        stub_calls.append(name)
        return {"check": name, "n": ideal.n, "ideal": str(ideal),
                "violated": "injected"}

    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("lemma79"))
    monkeypatch.setattr(corpus, "witness_from_ideal", stub_witness)

    plan = EnumerationPlan(n=9, mode="random", sample_count=50_000, seed=4)
    report = search_counterexample(plan, "lemma79", max_witnesses=1)
    assert report.status == "witnesses-found"
    assert len(report.witnesses) == 1
    assert report.witnesses[0]["sample_index"] == 0
    # stopped after the first chunk instead of scanning all 50k samples
    assert report.instances_scanned == 2000
    # the task built only the one witness the search asked for
    assert len(stub_calls) == 1


def test_huge_budget_search_stays_in_bounded_memory(monkeypatch):
    # the sample tasks are drawn as they run: a search that stops after its
    # first task of a 10^9-sample plan never builds the other 499,999
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    plan = EnumerationPlan(n=7, mode="random", sample_count=10**9, seed=4)
    report, _, peak = traced(lambda: search_counterexample(plan, "main", max_witnesses=1))
    assert report.instances_scanned == 2000
    assert peak < 4 * 2**20


def test_search_memory_does_not_grow_with_its_budget(monkeypatch):
    # a search that never stops early holds about two tasks' profiles, not
    # every profile of its budget: here each sample has a profile of its own,
    # none applies, and the tasks are small, so ten times the budget is ten
    # times the tasks and the profiles, and the same peak
    outcome = _PROFILE, (None,) * len(CHECK_ORDER)
    distinct = itertools.count()
    monkeypatch.setattr(corpus, "random_gen_masks", lambda n, rng: [])
    monkeypatch.setattr(corpus, "alpha_counts_of_ideal",
                        lambda n, masks: (next(distinct),) + (0,) * n)
    monkeypatch.setattr(corpus, "evaluate_profile", lambda alpha: outcome)
    monkeypatch.setattr(corpus, "_SAMPLE_TASK_SIZE", 200)

    def traced_search(samples):
        plan = EnumerationPlan(n=12, mode="random", sample_count=samples, seed=4)
        report, _, peak = traced(lambda: search_counterexample(plan, "main"))
        return report, peak

    traced_search(400)  # fills the caches the two measured runs share
    small, small_peak = traced_search(2_000)
    large, large_peak = traced_search(20_000)
    assert small.status == large.status == "inconclusive"
    assert large.instances_scanned == 20_000
    assert large_peak - small_peak <= 2 * 2**20


def test_sample_witness_is_realized_from_minimalized_draws(monkeypatch):
    # a sample's alpha is counted from its raw draws, but its witness ideal
    # must be the minimal antichain that the report path reads
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    n, seed = 7, 4
    plan = EnumerationPlan(n=n, mode="random", sample_count=2000, seed=seed)
    report = search_counterexample(plan, "main", max_witnesses=5)
    assert len(report.witnesses) == 5
    raw_is_minimal = []
    for w in report.witnesses:
        i = w["sample_index"]
        assert w["ideal"] == str(random_ideal(n, sample_rng(seed, n, i)))
        draws = random_gen_masks(n, sample_rng(seed, n, i))
        raw_is_minimal.append(tuple(draws) == minimalize(draws))
    assert not all(raw_is_minimal)  # some witness needed minimalizing


def test_search_respects_max_witnesses(monkeypatch):
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    plan = EnumerationPlan(n=7, mode="random", sample_count=10_000, seed=4)
    report = search_counterexample(plan, "main", max_witnesses=3)
    assert report.status == "witnesses-found"
    assert len(report.witnesses) == 3
    assert [w["sample_index"] for w in report.witnesses] == [0, 1, 2]


def test_search_with_workers_stops_after_first_witness_chunk(monkeypatch):
    # the pool keeps a window of tasks in flight; stopping early discards the
    # rest of it, so the scanned count is the same as with one worker
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    plan = EnumerationPlan(n=7, mode="random", sample_count=40_000, seed=4, workers=2)
    report = search_counterexample(plan, "main", max_witnesses=1)
    assert report.status == "witnesses-found"
    assert report.instances_scanned == 2000
    assert report.witnesses[0]["sample_index"] == 0


def test_search_has_no_per_task_cap(monkeypatch):
    # every profile fails: the first task of 2,000 samples holds more than 30
    # profiles, so it alone gives all 30 witnesses and the scan stops after it
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    plan = EnumerationPlan(n=7, mode="random", sample_count=4000, seed=4)
    report = search_counterexample(plan, "main", max_witnesses=30)
    assert len(report.witnesses) == 30
    assert all(w["sample_index"] < 2000 for w in report.witnesses)
    assert report.instances_scanned == 2000


def test_one_witness_per_failing_profile_key(monkeypatch):
    # n = 3 has fewer than 25 alpha keys, far below max_witnesses, and 4,000
    # samples are two tasks that meet the same keys:
    # each failing key yields exactly one witness per scan
    def keyed_witness(ideal, name):
        key = tuple(alpha_of_quotient(ideal))
        return {"check": name, "n": ideal.n, "ideal": str(ideal), "key": key}

    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", keyed_witness)

    for samples in (2000, 4000):
        plan = EnumerationPlan(n=3, mode="random", sample_count=samples, seed=4)
        report = search_counterexample(plan, "main", max_witnesses=100)
        keys = [w["key"] for w in report.witnesses]
        assert 0 < len(keys) < 25
        assert len(set(keys)) == len(keys), samples


def test_exhaustive_search_builds_only_max_witnesses(monkeypatch):
    # every one of the 24 census profiles at n = 4 fails, but only the
    # requested number of them is materialized
    calls = []

    def counting_witness(ideal, name):
        calls.append(name)
        return _stub_witness(ideal, name)

    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", counting_witness)

    report = search_counterexample(EnumerationPlan(n=4, mode="exhaustive"), "main",
                                   max_witnesses=2)
    assert report.status == "witnesses-found"
    assert report.instances_scanned == PROPER_IDEAL_COUNTS[4]
    assert len(report.witnesses) == len(calls) == 2


@pytest.mark.parametrize("plan", [EnumerationPlan(n=4, mode="exhaustive"),
                                  EnumerationPlan(n=7, mode="random", sample_count=3000,
                                                  seed=4)],
                         ids=["exhaustive", "random"])
def test_witness_that_does_not_reverify_raises(monkeypatch, plan):
    # a profile the fast path fails but the report path passes must stop the
    # run, not be tallied as a failure without a witness
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", lambda ideal, name: None)

    with pytest.raises(RuntimeError, match=rf"main fails on the profile of n = {plan.n}, "
                                           r"alpha = \(1, "):
        search_counterexample(plan, "main", max_witnesses=5)


def test_max_witnesses_below_one_is_refused_before_any_scan(monkeypatch):
    # every profile fails, so a search that asks for no witness could only end
    # in a false none-exhaustive verdict over a corpus it failed throughout
    evaluated = []
    failing = _always_failing("main")

    def counting_evaluate(alpha_sf):
        evaluated.append(alpha_sf)
        return failing(alpha_sf)

    monkeypatch.setattr(corpus, "evaluate_profile", counting_evaluate)
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_witnesses"):
            search_counterexample(EnumerationPlan(n=4, mode="exhaustive"), "main",
                                  max_witnesses=budget)
        for mode, samples, seed in (("exhaustive", 0, None), ("random", 4000, 4)):
            plans = [EnumerationPlan(n, mode, samples, seed) for n in range(3, 5)]
            with pytest.raises(ValueError, match="max_witnesses"):
                search_n_range(plans, "main", budget)
    assert evaluated == []


def test_search_n_range_carries_the_witness_budget_across_n(monkeypatch):
    # every profile fails: n = 3 gives all 8 of its profiles as witnesses,
    # n = 4 the remaining 2 of the 10, and n = 5 is never scanned; the
    # combined report still lists every requested n
    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", _stub_witness)

    plans = [EnumerationPlan(n, "exhaustive") for n in range(3, 6)]
    combined, per_n = search_n_range(plans, "main", 10)
    assert [r.n_values for r in per_n] == [(3,), (4,)]
    assert [len(r.witnesses) for r in per_n] == [8, 2]
    assert [r.instances_scanned for r in per_n] == [PROPER_IDEAL_COUNTS[3],
                                                    PROPER_IDEAL_COUNTS[4]] == [18, 166]
    assert [w["n"] for w in combined.witnesses] == [3] * 8 + [4] * 2
    assert combined.n_values == (3, 4, 5)
    assert combined.instances_scanned == 184
    assert combined.status == "witnesses-found"


def test_search_n_range_refuses_plans_that_differ_in_more_than_n(monkeypatch):
    # the combined report reads one mode and seed off the plans and the split
    # reads one sample count, so a request whose plans disagree is refused
    # before any profile is evaluated
    evaluated = []
    monkeypatch.setattr(corpus, "evaluate_profile", evaluated.append)

    base = EnumerationPlan(3, "random", 4000, 4)
    for other in (base._replace(n=4, seed=5), base._replace(n=4, workers=2),
                  base._replace(n=4, sample_count=10), EnumerationPlan(4, "exhaustive")):
        with pytest.raises(ValueError, match="differ only in n"):
            search_n_range([base, other], "main", 1)
    assert evaluated == []


def test_search_n_range_refuses_a_repeated_n(monkeypatch):
    # each plan would scan its n again with the same seed and samples, so a
    # request that repeats an n is refused before any profile is evaluated
    evaluated = []
    monkeypatch.setattr(corpus, "evaluate_profile", evaluated.append)

    for base in (EnumerationPlan(3, "random", 4, 1), EnumerationPlan(3, "exhaustive")):
        with pytest.raises(ValueError, match="own n"):
            search_n_range([base, base._replace(n=4), base], "main", 1)
    assert evaluated == []


def test_search_n_range_holds_the_plans_as_passed():
    # 3 samples over n = 10..14: n = 10, 11 and 12 draw one sample each and
    # n = 13, 14 none, while the combined report keeps all five requested plans
    plans = [EnumerationPlan(n, "random", 3, 1) for n in range(10, 15)]
    combined, per_n = search_n_range(iter(plans), "beta47-bound", 1)
    assert combined.plans == tuple(plans)
    assert combined.n_values == (10, 11, 12, 13, 14)
    assert [r.plans for r in per_n] == [(plan._replace(sample_count=1),) for plan in plans[:3]]
    assert [r.instances_scanned for r in per_n] == [1, 1, 1]
    assert combined.instances_scanned == 3
