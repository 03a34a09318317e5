"""Early-stop behavior of the random search, exercised with injected outcomes.

No reachable corpus fails the real checks (that is the point of the suite), so
the witness-found branch is driven by monkeypatched evaluation.
"""

from hilbertdepth import corpus
from hilbertdepth.corpus import EnumerationPlan, search_counterexample
from hilbertdepth.theorems import CHECK_ORDER, ProfileOutcome


def test_search_stops_after_first_witness_chunk(monkeypatch):
    pos = CHECK_ORDER.index("lemma79")

    def always_failing(n, alpha_sf, principal=None):
        flags = [(False, True)] * len(CHECK_ORDER)
        flags[pos] = (True, False)
        return ProfileOutcome(0, 0, bool(principal), True, tuple(flags))

    stub_calls = []

    def stub_witness(ideal, name):
        stub_calls.append(name)
        return {"check": name, "n": ideal.n, "ideal": str(ideal),
                "violated": "injected"}

    monkeypatch.setattr(corpus, "evaluate_profile", always_failing)
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
    pos = CHECK_ORDER.index("main")

    def always_failing(n, alpha_sf, principal=None):
        flags = [(False, True)] * len(CHECK_ORDER)
        flags[pos] = (True, False)
        return ProfileOutcome(0, 0, bool(principal), True, tuple(flags))

    monkeypatch.setattr(corpus, "evaluate_profile", always_failing)
    monkeypatch.setattr(corpus, "witness_from_ideal",
                        lambda ideal, name: {"check": name, "n": ideal.n,
                                             "ideal": str(ideal), "violated": "x"})

    plan = EnumerationPlan(n=7, mode="random", sample_count=10_000, seed=4)
    report = search_counterexample(plan, "main", max_witnesses=3)
    assert report.status == "witnesses-found"
    assert len(report.witnesses) == 3
    assert [w["sample_index"] for w in report.witnesses] == [0, 1, 2]


def test_search_with_workers_stops_after_first_witness_chunk(monkeypatch):
    # the pool keeps a window of tasks in flight; stopping early discards the
    # rest of it, so the scanned count is the same as with one worker
    pos = CHECK_ORDER.index("main")

    def always_failing(n, alpha_sf, principal=None):
        flags = [(False, True)] * len(CHECK_ORDER)
        flags[pos] = (True, False)
        return ProfileOutcome(0, 0, bool(principal), True, tuple(flags))

    monkeypatch.setattr(corpus, "evaluate_profile", always_failing)
    monkeypatch.setattr(corpus, "witness_from_ideal",
                        lambda ideal, name: {"check": name, "n": ideal.n,
                                             "ideal": str(ideal), "violated": "x"})

    plan = EnumerationPlan(n=7, mode="random", sample_count=40_000, seed=4, workers=2)
    report = search_counterexample(plan, "main", max_witnesses=1)
    assert report.status == "witnesses-found"
    assert report.instances_scanned == 2000
    assert report.witnesses[0]["sample_index"] == 0
