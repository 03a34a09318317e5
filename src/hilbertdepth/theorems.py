"""Executable checkers for the Hilbert-depth comparison results.

Each named result is one predicate over a ``Profile``.  It returns None when
its preconditions do not hold, "" when it passes, and the violated
inequality when it fails.  With q = hdepth(S/I):

* ``main``                   -- hdepth(I) >= hdepth(S/I) whenever q <= 6 or n <= 9;
* ``principal-equivalence``  -- I principal <=> hdepth(I) = n <=> q = n-1;
* ``bound-equivalence``      -- for nonprincipal I inside m^2:
                                hdepth(I) >= q  <=>  b_k^q(S/I) <= C(n-q+k-1, k)
                                for all 3 <= k <= q;
* ``q6-bounds``              -- at q = 6 (same reductions): b_3^6 <= C(n-4,3),
                                b_4^6 <= C(n-3,4), b_5^6 <= C(n-2,5),
                                b_6^6 <= C(n-1,6);
* ``lemma79``                -- at n = 9, q = 7: b_k^7 <= k+1 for 3 <= k <= 7,
                                plus b_3^7 <= C(n-5,3);
* ``beta47-bound``           -- at q = 7: b_4^7 <= C(n-4,4).  This one is a
                                counterexample-search target, not part of the
                                verification suite: it is expected to fail
                                somewhere.

A verdict has that one encoding everywhere.  ``CHECKS`` / ``run_checks``
apply the predicates to an HdepthReport and wrap each verdict in a
CheckOutcome, with a witness dict when it fails.  ``evaluate_profile`` is the
allocation-light path of the corpus harness: a Profile is a function of n and
alpha(S/I) alone (principality included, via the profile of alpha(I)), so
runs are aggregated per distinct alpha vector, and its ProfileOutcome carries
every predicate's verdict, in CHECK_ORDER, to the harness's tally.

``reproduce_bound_tables`` regenerates the auxiliary difference tables
x -> C(x,k) - c*C(x,k-1) that the level-6/level-7 bound derivations tabulate,
and diffs them cell by cell against the published rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .combinatorics import (binom, binom_diff, complement_counts, kk_upper_bound,
                            macaulay_rep)
from .depth import HdepthReport, beta_values, hdepth, hdepth_report
from .ideals import Ideal


class Profile(NamedTuple):
    """What every predicate reads: n, both depths (q = hdepth(S/I)), the
    standing reductions, and the beta table of S/I at q."""

    n: int
    q: int
    h_ideal: int
    principal: bool
    in_m2: bool
    beta_q: tuple[int, ...]


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


def _bound_equivalence(p: Profile) -> str | None:
    """Both routes to 'hdepth(I) >= q' must agree: the depth computed from
    alpha(I) versus the beta bounds of S/I at q."""
    if p.principal or not p.in_m2:
        return None
    left = p.h_ideal >= p.q
    right = all(p.beta_q[k] <= binom(p.n - p.q + k - 1, k) for k in range(3, p.q + 1))
    return "" if left == right else (
        f"hdepth(I) >= {p.q} is {left} but the beta bound test gives {right}")


def _q6_bounds(p: Profile) -> str | None:
    if p.q != 6 or p.principal or not p.in_m2:
        return None
    caps = ((3, binom(p.n - 4, 3)), (4, binom(p.n - 3, 4)),
            (5, binom(p.n - 2, 5)), (6, binom(p.n - 1, 6)))
    return "; ".join(f"b_{k}^6 = {p.beta_q[k]} > {cap}" for k, cap in caps if p.beta_q[k] > cap)


def _lemma79(p: Profile) -> str | None:
    if p.n != 9 or p.q != 7:
        return None
    b = p.beta_q
    out = [f"b_{k}^7 = {b[k]} > {k + 1}" for k in range(3, 8) if b[k] > k + 1]
    cap3 = binom(p.n - 5, 3)
    if b[3] > cap3:
        out.append(f"b_3^7 = {b[3]} > C({p.n}-5,3) = {cap3}")
    return "; ".join(out)


def _beta47_bound(p: Profile) -> str | None:
    if p.q != 7:
        return None
    cap = binom(p.n - 4, 4)
    return "" if p.beta_q[4] <= cap else f"b_4^7 = {p.beta_q[4]} > C({p.n}-4,4) = {cap}"


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


def principal_alpha_profile(n: int, alpha_ideal) -> bool:
    """Principality read off alpha(I): the ideal generated by one monomial of
    degree d has exactly C(n-d, j-d) members in each degree j, and any ideal
    matching that profile is principal (the unique minimal-degree monomial
    divides everything, by induction on degree)."""
    d = next((j for j, a in enumerate(alpha_ideal) if a), None)
    if d is None or d == 0:
        return False
    return all(alpha_ideal[j] == binom(n - d, j - d) for j in range(n + 1))


# --- checkers over full reports ----------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    """One predicate's verdict on one report, and its witness when it fails."""

    name: str
    verdict: str | None
    witness: dict | None = None

    @property
    def applicable(self) -> bool:
        return self.verdict is not None

    @property
    def passed(self) -> bool:
        return not self.verdict


def _report_profile(report: HdepthReport) -> Profile:
    q = report.hdepth_quotient
    return Profile(report.n, q, report.hdepth_ideal, report.principal, report.in_m2,
                   report.beta_triangle_quotient[q])


def _witness(report: HdepthReport, name: str, violated: str) -> dict:
    q = report.hdepth_quotient
    return {
        "check": name,
        "n": report.n,
        "ideal": str(report.ideal),
        "violated": violated,
        "alpha_quotient": list(report.alpha_quotient),
        "alpha_ideal": list(report.alpha_ideal),
        "hdepth_quotient": q,
        "hdepth_ideal": report.hdepth_ideal,
        "beta_quotient_at_q": list(report.beta_triangle_quotient[q]),
        "principal": report.principal,
        "in_m2": report.in_m2,
    }


def _outcome(report: HdepthReport, profile: Profile, name: str) -> CheckOutcome:
    verdict = PREDICATES[name](profile)
    return CheckOutcome(name, verdict, _witness(report, name, verdict) if verdict else None)


def run_checks(report: HdepthReport) -> list[CheckOutcome]:
    """The outcomes of the VERIFY_CHECKS on one report, in that order."""
    profile = _report_profile(report)
    return [_outcome(report, profile, name) for name in VERIFY_CHECKS]


# CHECKS[name](report) -> CheckOutcome, with a witness dict when it fails
CHECKS = {name: (lambda report, name=name: _outcome(report, _report_profile(report), name))
          for name in CHECK_ORDER}


def witness_from_ideal(I: Ideal, name: str) -> dict | None:
    """Fresh full evaluation of one check on one ideal; the failing witness
    dict, or None if the check passes (or does not apply)."""
    return CHECKS[name](hdepth_report(I)).witness


# --- fast alpha-profile evaluation (corpus harness) ---------------------------

class ProfileOutcome(NamedTuple):
    q: int
    h_ideal: int
    principal: bool
    in_m2: bool
    verdicts: tuple[str | None, ...]  # one per CHECK_ORDER entry


def evaluate_profile(n: int, alpha_sf, principal: bool | None = None) -> ProfileOutcome:
    """Run every named check from (n, alpha(S/I)) alone.

    ``principal`` may be supplied when the caller holds the generators; when
    None it is derived from the alpha profile (equivalent, and cross-checked
    against the generator count in the tests).
    """
    alpha_i = complement_counts(n, alpha_sf)
    q = hdepth(alpha_sf)
    h_ideal = hdepth(alpha_i)
    if principal is None:
        principal = principal_alpha_profile(n, alpha_i)
    in_m2 = alpha_sf[0] == 1 and alpha_sf[1] == n
    profile = Profile(n, q, h_ideal, principal, in_m2, beta_values(alpha_sf, q))
    return ProfileOutcome(q, h_ideal, principal, in_m2,
                          tuple(check(profile) for check in PREDICATES.values()))


# --- published difference tables ----------------------------------------------

@dataclass(frozen=True)
class BoundTable:
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
# resulting cap on 6*a_3 - 10*a_2.  min(a_3) comes from b_3^7 >= 0, i.e.
# a_3 >= 5*a_2 - 100; max(a_3) is the Kruskal-Katona upper shadow bound.
ALPHA2_WINDOW_TABLE = (
    ("alpha2", (33, 34, 35, 36)),
    ("min_alpha3", (65, 70, 75, 80)),
    ("max_alpha3", (66, 71, 77, 84)),
    ("max_6a3_minus_10a2", (66, 86, 112, 144)),
)


def _alpha2_window_computed() -> dict[str, tuple[int, ...]]:
    alpha2 = ALPHA2_WINDOW_TABLE[0][1]
    min_a3 = tuple(5 * a2 - 100 for a2 in alpha2)
    max_a3 = tuple(kk_upper_bound(macaulay_rep(a2, 2)) for a2 in alpha2)
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
