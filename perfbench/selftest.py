"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py      # about 4 minutes

For each workload, with its default seed:

* tracing rebinds every wrapped name on each module that imported it, and
  leaves every hilbertdepth module attribute as it found it;
* the traced output bytes equal the untraced ones, and both match the digest
  recorded on the seed commit;
* call counts repeat exactly across two traced runs and match the size of
  the workload.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

from workloads import CENSUS_IDEALS, CENSUS_PROFILES, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

from run import run_traced  # noqa: E402
from tracing import Tracer, module_bindings  # noqa: E402

# Exact per-layer counts of each workload at its default seed, from its size:
# n values scanned, samples drawn, ideals reported, census ideals and profiles.
EXPECTED_COUNTS = {
    "census-n1-5": {"corpus.alpha_census.calls": 5, "corpus.run_verification.calls": 5,
                    "corpus.alpha_census.downsets": sum(CENSUS_IDEALS[n] for n in range(1, 6)),
                    "theorems.evaluate_profile.calls": sum(CENSUS_PROFILES[n] for n in range(1, 6)),
                    "theorems.evaluate_profile.distinct": sum(CENSUS_PROFILES[n] for n in range(1, 6)),
                    "corpus.random_gen_masks.calls": 0, "cli.main.calls": 1},
    "census-n6": {"corpus.alpha_census.calls": 1, "corpus.run_verification.calls": 1,
                  "corpus.alpha_census.downsets": CENSUS_IDEALS[6],
                  "theorems.evaluate_profile.calls": CENSUS_PROFILES[6],
                  "theorems.evaluate_profile.distinct": CENSUS_PROFILES[6],
                  "corpus.random_gen_masks.calls": 0, "cli.main.calls": 1},
    "sample-n7-9": {"corpus.random_gen_masks.calls": 12000, "corpus.sample_rng.calls": 12000,
                    "ideals.alpha_counts_of_ideal.calls": 12000, "corpus.run_verification.calls": 3,
                    "corpus.alpha_census.calls": 0, "depth.hdepth_report.calls": 0},
    "search-beta47": {"corpus.random_gen_masks.calls": 3000, "corpus.sample_rng.calls": 3000,
                      "ideals.alpha_counts_of_ideal.calls": 3000,
                      "corpus.search_counterexample.calls": 5, "corpus.run_verification.calls": 0},
    "report-csv-n9": {"corpus.random_gen_masks.calls": 1000, "corpus.random_ideal.calls": 1000,
                      "corpus.sample_rng.calls": 1000, "depth.hdepth_report.calls": 1000,
                      "ideals.alpha_vector.calls": 2000, "theorems.run_checks.calls": 1000,
                      "theorems.evaluate_profile.calls": 0},
}

# Names bound by `from ... import` in another module, as well as where defined.
IMPORTED_BINDINGS = ("hilbertdepth.corpus.evaluate_profile", "hilbertdepth.theorems.hdepth",
                     "hilbertdepth.depth.hdepth", "hilbertdepth.cli.hdepth_report",
                     "hilbertdepth.cli.run_verification", "hilbertdepth.corpus.alpha_counts_of_ideal",
                     "hilbertdepth.cli.sample_rng", "hilbertdepth.cli.run_checks")


def check_bindings() -> list[str]:
    import hilbertdepth.cli  # noqa: F401

    problems = []
    before = module_bindings()
    with Tracer().installed():
        for dotted in IMPORTED_BINDINGS:
            mod, attr = dotted.rsplit(".", 1)
            if not hasattr(getattr(sys.modules[mod], attr, None), "__wrapped__"):
                problems.append(f"{dotted} is not rebound while tracing")
    if module_bindings() != before:
        problems.append("tracing left a module attribute rebound")
    return problems


def check_workload(name: str) -> list[str]:
    w = WORKLOADS[name]
    first, second = run_traced(w, None, 0), run_traced(w, None, 0)
    problems = first.problems + second.problems
    counts = [{k: v for k, (v, unit) in r.metrics.items() if unit == "count"}
              for r in (first, second)]
    if counts[0] != counts[1]:
        problems.append(f"{name}: call counts differ between two traced runs")
    for metric, want in EXPECTED_COUNTS[name].items():
        if counts[0][metric] != want:
            problems.append(f"{name}: {metric} = {counts[0][metric]}, expected {want}")
    return problems


def main() -> int:
    problems = check_bindings()
    print(f"bindings: {'ok' if not problems else 'FAILED'}")
    for name in WORKLOADS:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
