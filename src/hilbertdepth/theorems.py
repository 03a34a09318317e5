"""Executable checkers for the Hilbert-depth comparison results.

Each named result is one predicate over a ``depth.Profile``.  It returns None when
its preconditions do not hold, "" when it passes, and the violated
inequality when it fails.  With q = hdepth(S/I), the identity
b_k^q(I) = b_k^q(S) - b_k^q(S/I) (``depth.hdepth_pair``) makes every bound
below a cell of one cap row, ``depth.ring_beta_row(n, q)`` =
(C(n-q+k-1, k))_{k<=q}: hdepth(I) >= q iff b_k^q(S/I) <= C(n-q+k-1, k) for
every k <= q.

* ``main``                   -- hdepth(I) >= hdepth(S/I) whenever q <= 6 or n <= 9;
* ``principal-equivalence``  -- I principal <=> hdepth(I) = n <=> q = n-1;
* ``bound-equivalence``      -- for nonprincipal I inside m^2:
                                hdepth(I) >= q  <=>  no cap cell 3 <= k <= q fails;
* ``q6-bounds``              -- at q = 6 (same reductions): the cells k = 3..6,
                                C(n-4,3), C(n-3,4), C(n-2,5), C(n-1,6);
* ``lemma79``                -- at n = 9, q = 7: the cells k = 3..7, which are k+1;
* ``beta47-bound``           -- at q = 7: the cell k = 4, C(n-4,4).  This one is
                                a counterexample-search target, not part of the
                                verification suite: it is expected to fail
                                somewhere.

For k <= 2 the cap holds by itself inside m^2 (b_1^q = n-q,
b_2^q <= C(n-q+1, 2)), and under ``lemma79``'s gate too.  So on their gates
``q6-bounds`` and ``lemma79`` fail exactly when ``main`` fails: they restate
it, and their agreement with it is algebra, not evidence.
``bound-equivalence`` compares the two sides of the identity, so only a bug
in this code can fail it.  ``principal-equivalence`` is the one check with
content of its own.

A verdict has that one encoding everywhere, and both evaluation paths return
one record: a Profile and every predicate's verdict on it, in CHECK_ORDER.
Only two functions build a Profile.  ``depth.hdepth_report`` builds one per
ideal, from its independent walk over each side's beta rows and from the
generators, and ``run_checks`` takes the one its HdepthReport holds.
``evaluate_profile`` is the allocation-light path of the corpus harness: a
Profile is a function of alpha(S/I) alone (principality included, via the
profile of alpha(I)), so runs are aggregated per distinct alpha vector.
Both call ``_verdicts``, the one place that runs PREDICATES.
``witness_from_ideal`` reads one check's verdict off ``run_checks``' record
for one ideal and returns its witness dict when it fails.

``reproduce_bound_tables`` regenerates the auxiliary difference tables
x -> C(x,k) - c*C(x,k-1) that the level-6/level-7 bound derivations tabulate,
and the a_2 window of the q = 7 analysis (min(a_3) read off ``beta_values``,
max(a_3) off ``kk_ceiling``), and diffs them cell by cell against the published
rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .combinatorics import binom, binom_diff, complement_counts, kk_ceiling
# hdepth is not called here; perfbench/selftest.py pins the theorems.hdepth
# binding that the benchmark's tracer rebinds, so the import stays
from .depth import (HdepthReport, Profile, beta_values, hdepth,  # noqa: F401
                    hdepth_pair, hdepth_report, ring_beta_row)
from .ideals import Ideal


# --- the predicates ------------------------------------------------------------

def _main(p: Profile) -> str | None:
    if p.q > 6 and p.n > 9:
        return None
    return "" if p.h_ideal >= p.q else f"hdepth(I) = {p.h_ideal} < hdepth(S/I) = {p.q}"


def _principal_equivalence(p: Profile) -> str | None:
    sides = (p.principal, p.h_ideal == p.n, p.q == p.n - 1)
    if len(set(sides)) == 1:
        return ""
    return f"principal={sides[0]}, hdepth(I)=n is {sides[1]}, hdepth(S/I)=n-1 is {sides[2]}"


def _over_cap(p: Profile, ks) -> str:
    """The cells k in ks where b_k^q(S/I) exceeds its cap b_k^q(S), as
    'b_k^q = b > cap', joined by '; '; "" when none does."""
    cap = ring_beta_row(p.n, p.q)
    b = p.beta_q
    return "; ".join(f"b_{k}^{p.q} = {b[k]} > {cap[k]}" for k in ks if b[k] > cap[k])


def _bound_equivalence(p: Profile) -> str | None:
    """Both routes to 'hdepth(I) >= q' must agree: the depth computed from
    alpha(I) versus the cap cells of S/I at q."""
    if p.principal or not p.in_m2:
        return None
    left = p.h_ideal >= p.q
    right = not _over_cap(p, range(3, p.q + 1))
    return "" if left == right else (
        f"hdepth(I) >= {p.q} is {left} but the beta bound test gives {right}")


def _q6_bounds(p: Profile) -> str | None:
    if p.q != 6 or p.principal or not p.in_m2:
        return None
    return _over_cap(p, range(3, 7))


def _lemma79(p: Profile) -> str | None:
    if p.n != 9 or p.q != 7:
        return None
    return _over_cap(p, range(3, 8))


def _beta47_bound(p: Profile) -> str | None:
    if p.q != 7:
        return None
    return _over_cap(p, (4,))


PREDICATES = {
    "main": _main,
    "principal-equivalence": _principal_equivalence,
    "bound-equivalence": _bound_equivalence,
    "q6-bounds": _q6_bounds,
    "lemma79": _lemma79,
    "beta47-bound": _beta47_bound,
}
CHECK_ORDER = tuple(PREDICATES)

# beta47-bound is a search target (expected to fail in general), never a
# pass/fail criterion for verification runs.
VERIFY_CHECKS = CHECK_ORDER[:5]


def _verdicts(profile: Profile) -> tuple[str | None, ...]:
    """Every predicate's verdict on the profile, in CHECK_ORDER."""
    return tuple(check(profile) for check in PREDICATES.values())


@lru_cache(maxsize=None)
def _principal_profiles(n: int) -> frozenset:
    """alpha(S/I) of the n principal ideals, one per generator degree d = 1..n:
    the complements of the C(n-d, j-d) that ``principal_alpha_profile`` (in
    ``tests/conftest.py``) tests for.  The first nonzero degree of alpha(I)
    fixes d, so membership in this set is that test, in one lookup."""
    return frozenset(complement_counts([binom(n - d, j - d) for j in range(n + 1)])
                     for d in range(1, n + 1))


# --- checkers over full reports ----------------------------------------------

def _witness(report: HdepthReport, name: str, violated: str) -> dict:
    p = report.profile
    return {
        "check": name,
        "n": p.n,
        "ideal": str(report.ideal),
        "violated": violated,
        "alpha_quotient": list(report.alpha_quotient),
        "alpha_ideal": list(report.alpha_ideal),
        "hdepth_quotient": p.q,
        "hdepth_ideal": p.h_ideal,
        "beta_quotient_at_q": list(p.beta_q),
        "principal": p.principal,
        "in_m2": p.in_m2,
    }


def run_checks(report: HdepthReport) -> tuple[Profile, tuple[str | None, ...]]:
    """The report's Profile and every predicate's verdict on it, in
    CHECK_ORDER: the record ``evaluate_profile`` returns."""
    return report.profile, _verdicts(report.profile)


def witness_from_ideal(I: Ideal, name: str) -> dict | None:
    """Fresh full evaluation of one check on one ideal; the failing witness
    dict, or None if the check passes (or does not apply)."""
    if name not in CHECK_ORDER:
        raise ValueError(f"unknown predicate {name!r}")
    report = hdepth_report(I)
    verdict = run_checks(report)[1][CHECK_ORDER.index(name)]
    return _witness(report, name, verdict) if verdict else None


# --- fast alpha-profile evaluation (corpus harness) ---------------------------

def evaluate_profile(alpha_sf) -> tuple[Profile, tuple[str | None, ...]]:
    """Run every named check from alpha(S/I) alone, n = len(alpha_sf) - 1: the
    Profile the predicates read, and their verdicts in CHECK_ORDER.

    ``hdepth_pair`` refuses an entry outside [0, C(n, j)].  Principality is a
    lookup of alpha(S/I) in ``_principal_profiles(n)``.
    """
    alpha_sf = tuple(alpha_sf)
    n = len(alpha_sf) - 1
    q, h_ideal, beta_q = hdepth_pair(alpha_sf)
    principal = alpha_sf in _principal_profiles(n)
    in_m2 = alpha_sf[0] == 1 and alpha_sf[1] == n
    profile = Profile(n, q, h_ideal, principal, in_m2, beta_q)
    return profile, _verdicts(profile)


# --- published difference tables ----------------------------------------------

class BoundTable(NamedTuple):
    """One published table of x -> C(x,k) - c*C(x,k-1) rows.

    ``group`` names the bound derivation the table supports (level q, entry k);
    rows map k to the printed values at x = 1..len(row).
    """

    group: str
    c: int
    rows: tuple[tuple[int, tuple[int, ...]], ...]


BOUND_TABLES = (
    # q = 6, k = 4 analysis: f, g, h with multiplier 3
    BoundTable("q6k4", 3, (
        (4, (0, 0, -3, -11, -25, -45, -70, -98, -126, -150, -165, -165, -143, -91, 0, 140)),
        (3, (0, -3, -8, -14, -20, -25, -28, -28, -24, -15, 0, 22, 52)),
        (2, (-3, -5, -6, -6, -5, -3, 0, 4, 9, 15, 22, 30)),
    )),
    # q = 6, k = 5 analysis: multiplier 2
    BoundTable("q6k5", 2, (
        (5, (0, 0, 0, -2, -9, -24, -49, -84, -126, -168, -198, -198, -143, 0)),
        (4, (0, 0, -2, -7, -15, -25, -35, -42, -42, -30, 0, 55, 143, 273)),
        (3, (0, -2, -5, -8, -10, -10, -7, 0, 12, 30, 55, 88, 130, 182)),
        (2, (-2, -3, -3, -2, 0, 3, 7, 12, 18, 25, 33, 42, 52, 63)),
    )),
    # q = 6, k = 6 analysis: multiplier 1
    BoundTable("q6k6", 1, (
        (6, (0, 0, 0, 0, -1, -5, -14, -28, -42, -42, 0)),
        (5, (0, 0, 0, -1, -4, -9, -14, -14, 0, 42, 132)),
        (4, (0, 0, -1, -3, -5, -5, 0, 14, 42, 90, 165)),
        (3, (0, -1, -2, -2, 0, 5, 14, 28, 48, 75, 110)),
        (2, (-1, -1, 0, 2, 5, 9, 14, 20, 27, 35, 44)),
    )),
    # companion rows in the q = 6, k = 6 analysis: multiplier 2
    BoundTable("q6k6-aux", 2, (
        (3, (0, -2, -5, -8, -10, -10, -7, 0, 12)),
        (2, (-2, -3, -3, -2, 0, 3, 7, 12, 18)),
    )),
    # q = 7, k = 4 analysis: multiplier 4
    BoundTable("q7k4", 4, (
        (4, (0, 0, -4, -15, -35, -65, -105, -154, -210)),
        (3, (0, -4, -11, -20, -30, -40, -49)),
        (2, (-4, -7, -9, -10, -10, -9)),
    )),
    # q = 7, k = 5 analysis: multiplier 3
    BoundTable("q7k5", 3, (
        (5, (0, 0, 0, -3, -14, -39, -84, -154, -252)),
        (4, (0, 0, -3, -11, -25, -45, -70)),
        (3, (0, -3, -8, -14, -20, -25)),
        (2, (-3, -5, -6, -6, -5)),
    )),
    # q = 7, k = 6 analysis: multiplier 2
    BoundTable("q7k6", 2, (
        (6, (0, 0, 0, 0, -2, -11, -35, -84, -168)),
        (5, (0, 0, 0, -2, -9, -24, -49)),
        (4, (0, 0, -2, -7, -15, -25)),
        (3, (0, -2, -5, -8, -10)),
        (2, (-2, -3, -3, -2)),
    )),
    # q = 7, k = 7 analysis: multiplier 1
    BoundTable("q7k7", 1, (
        (7, (0, 0, 0, 0, 0, -1, -6, -20, -48)),
        (6, (0, 0, 0, 0, -1, -5, -14, -28)),
        (5, (0, 0, 0, -1, -4, -9, -14, -14)),
        (4, (0, 0, -1, -3, -5, -5, 0, 14)),
        (3, (0, -1, -2, -2, 0, 5, 14, 28)),
        (2, (-1, -1, 0, 2, 5, 9, 14, 20)),
    )),
)

# Companion table in the q = 7, k = 5 analysis: for each value of a_2 (with
# a_0 = 1, a_1 = 9 at n = 9 and q = 7), the forced window of a_3 and the
# resulting cap on 6*a_3 - 10*a_2.  min(a_3) comes from b_3^7 >= 0: b_3^7 =
# a_3 - 5*a_2 + 100, so min(a_3) = 5*a_2 - 100, which is -b_3^7 at a_3 = 0;
# max(a_3) is the Kruskal-Katona ceiling, kk_ceiling(9, 3, a_2).
ALPHA2_WINDOW_TABLE = (
    ("alpha2", (33, 34, 35, 36)),
    ("min_alpha3", (65, 70, 75, 80)),
    ("max_alpha3", (66, 71, 77, 84)),
    ("max_6a3_minus_10a2", (66, 86, 112, 144)),
)


def _alpha2_window_computed() -> dict[str, tuple[int, ...]]:
    alpha2 = ALPHA2_WINDOW_TABLE[0][1]
    min_a3 = tuple(-beta_values((1, 9, a2, 0, 0, 0, 0, 0), 7)[3] for a2 in alpha2)
    max_a3 = tuple(kk_ceiling(9, 3, a2) for a2 in alpha2)
    cap = tuple(6 * m - 10 * a2 for m, a2 in zip(max_a3, alpha2))
    return {"alpha2": alpha2, "min_alpha3": min_a3,
            "max_alpha3": max_a3, "max_6a3_minus_10a2": cap}


def _table_diffs(table: str, row: str, xs, printed, computed) -> list[dict]:
    return [{"table": table, "row": row, "x": x, "expected": e, "computed": c}
            for x, e, c in zip(xs, printed, computed) if e != c]


def reproduce_bound_tables() -> list[dict]:
    """Recompute every published table cell and return the diffs (expect none).

    Each diff is {"table", "row", "x", "expected", "computed"}.
    """
    diffs = []
    for table in BOUND_TABLES:
        for k, printed in table.rows:
            xs = range(1, len(printed) + 1)
            diffs += _table_diffs(table.group, f"k={k}", xs, printed,
                                  [binom_diff(table.c, k, x) for x in xs])
    computed = _alpha2_window_computed()
    alpha2 = ALPHA2_WINDOW_TABLE[0][1]
    for label, printed in ALPHA2_WINDOW_TABLE:
        diffs += _table_diffs("q7k5-alpha2-window", label, alpha2, printed, computed[label])
    return diffs
