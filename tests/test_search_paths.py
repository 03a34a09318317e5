"""Early-stop behavior of the random search, exercised with injected outcomes.

No reachable corpus fails the real checks (that is the point of the suite), so
the witness-found branch is driven by monkeypatched evaluation.
"""

from hilbertdepth import corpus
from hilbertdepth.corpus import (EnumerationPlan, PROPER_IDEAL_COUNTS,
                                 search_counterexample)
from hilbertdepth.ideals import alpha_of_quotient
from hilbertdepth.theorems import CHECK_ORDER, ProfileOutcome


def _always_failing(name):
    """An evaluate_profile stand-in under which only ``name`` applies, and fails."""
    pos = CHECK_ORDER.index(name)

    def evaluate(n, alpha_sf, principal=None):
        flags = [(False, True)] * len(CHECK_ORDER)
        flags[pos] = (True, False)
        return ProfileOutcome(0, 0, bool(principal), True, tuple(flags))

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
    assert stub_calls


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


def test_one_witness_per_failing_profile_key(monkeypatch):
    # n = 3 has fewer than 25 (alpha, principal) keys, so the per-task cap is
    # not what bounds the witnesses: each failing key yields exactly one
    def keyed_witness(ideal, name):
        key = (tuple(alpha_of_quotient(ideal)), len(ideal.gens) == 1)
        return {"check": name, "n": ideal.n, "ideal": str(ideal), "key": key}

    monkeypatch.setattr(corpus, "evaluate_profile", _always_failing("main"))
    monkeypatch.setattr(corpus, "witness_from_ideal", keyed_witness)

    plan = EnumerationPlan(n=3, mode="random", sample_count=2000, seed=4)
    report = search_counterexample(plan, "main", max_witnesses=100)
    keys = [w["key"] for w in report.witnesses]
    assert 0 < len(keys) < 25
    assert len(set(keys)) == len(keys)


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
