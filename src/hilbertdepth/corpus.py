"""Corpora of squarefree ideals: exhaustive enumeration, seeded sampling, search.

Proper nonzero ideals over n variables correspond bijectively to the downsets
of the Boolean lattice that contain the empty set and are not the whole
lattice (the downset is the set of monomials *outside* the ideal, i.e. the
faces of a simplicial complex; the minimal non-faces are the generators).
``enumerate_ideals`` walks exactly these downsets by backtracking over degree
levels, so it is duplicate-free by construction; the supported ceiling is
n <= EXHAUSTIVE_N_MAX (downset counts explode beyond ~7.8M at n = 6).  Level
n is never walked: its one face lies only in the full downset (I = 0), which
is excluded, so every walk stops at level n - 1.

The verification harness aggregates per distinct alpha vector: every check it
runs is a function of (n, alpha(S/I)) alone, so exhaustive runs tally an
"alpha census" instead of materializing 7.8M ideal objects, and a random
run's tasks evaluate each profile once.  Partitioning is the census's concern:
``alpha_census`` splits its walk into work chunks by fixing the selection of
the first levels (the chunk key), which preserves the census for any worker
count; the enumeration is not partitioned.

Random generation draws a generator count uniform in [1, 3n] and generator
degrees from a distribution weighted toward [2, n-2], then minimalizes.
Sample i of a run is drawn from its own Random seeded with "seed:n:i", making
runs bit-reproducible independently of worker count.
"""

from __future__ import annotations

import random
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .combinatorics import N_MAX, complement_counts
from .errors import CapacityError
from .ideals import (Ideal, Monomial, alpha_counts_of_ideal, alpha_of_quotient,
                     minimalize)
from .theorems import (CHECK_ORDER, VERIFY_CHECKS, evaluate_profile,
                       witness_from_ideal)

EXHAUSTIVE_N_MAX = 6

# downward-closed family counts for the Boolean lattice on n points, minus the
# two trivial downsets; equals the number of proper nonzero ideals
PROPER_IDEAL_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579, 6: 7828352}


# --- level tables -------------------------------------------------------------

class _Levels:
    """Per-n tables for walking downsets level by level.

    masks[d] lists the degree-d variable-masks in ascending order; facet bit
    i of facet_bits[d][i] indexes into level d-1.
    """

    def __init__(self, n: int):
        self.n = n
        self.masks: list[list[int]] = [[] for _ in range(n + 1)]
        for m in range(1, 1 << n):
            self.masks[m.bit_count()].append(m)
        index = [{m: i for i, m in enumerate(level)} for level in self.masks]
        self.facet_bits: list[list[int]] = [[], [0] * len(self.masks[1])]
        for d in range(2, n + 1):
            rows = []
            for m in self.masks[d]:
                bits = 0
                mm = m
                while mm:
                    low = mm & -mm
                    bits |= 1 << index[d - 1][m ^ low]
                    mm ^= low
                rows.append(bits)
            self.facet_bits.append(rows)
        self.full = [(1 << len(level)) - 1 for level in self.masks]


@lru_cache(maxsize=8)
def _levels(n: int) -> _Levels:
    return _Levels(n)


def _allowed(lv: _Levels, d: int, prev_bits: int) -> int:
    """Level-d sets whose facets all lie in the level-(d-1) selection."""
    if prev_bits == lv.full[d - 1]:
        return lv.full[d]
    allowed = 0
    for i, req in enumerate(lv.facet_bits[d]):
        if req & ~prev_bits == 0:
            allowed |= 1 << i
    return allowed


# --- exhaustive enumeration ----------------------------------------------------

def _check_exhaustive_n(n: int):
    if not 1 <= n <= EXHAUSTIVE_N_MAX:
        raise CapacityError(
            f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_N_MAX}, got {n}")


def _selections(lv: _Levels, top: int):
    """Every valid selection of levels 1..top, in DFS order (each level's
    subsets in descending bitmask order)."""
    acc: list[int] = []

    def rec(d: int, prev: int):
        if d > top:
            yield tuple(acc)
            return
        allowed = _allowed(lv, d, prev)
        s = allowed
        while True:
            acc.append(s)
            yield from rec(d + 1, s)
            acc.pop()
            if s == 0:
                return
            s = (s - 1) & allowed

    return rec(1, 0)


def enumerate_downsets(n: int):
    """Yield every proper-nonzero-ideal downset as per-level index bitmasks.

    Level n is not walked: its one face lies only in the full downset
    (I = 0), which is excluded, so every leaf ends in an empty level n.
    """
    _check_exhaustive_n(n)
    for selection in _selections(_levels(n), n - 1):
        yield selection + (0,)


def _gens_from_levels(lv: _Levels, leaf: tuple[int, ...]) -> list[int]:
    """Minimal non-faces of the downset: generator masks, sorted by (degree, mask)."""
    gens = []
    for d in range(1, lv.n + 1):
        chosen, prev = leaf[d - 1], leaf[d - 2] if d > 1 else 0
        gens += [m for i, m in enumerate(lv.masks[d])
                 if not chosen >> i & 1 and lv.facet_bits[d][i] & ~prev == 0]
    return gens


def enumerate_ideals(n: int):
    """Yield every proper nonzero squarefree ideal on n variables exactly once."""
    lv = _levels(n)
    for leaf in enumerate_downsets(n):
        yield Ideal(n, tuple(Monomial(m) for m in _gens_from_levels(lv, leaf)))


# The census is cut into work chunks.  A chunk fixes the selection of levels
# 1..min(2, n-1) and, below heavy selections, additionally pins the membership
# pattern of a few slots of the next level, so that no chunk dominates the
# walk.  Chunks partition the downsets exactly.
_SPLIT_FREE_BITS = 12
_SPLIT_MAX_FIXED = 6


@lru_cache(maxsize=8)
def _chunk_specs(n: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    lv = _levels(n)
    top = min(2, n - 1)
    chunks: list[tuple[tuple[int, ...], int, int]] = []
    for prefix in _selections(lv, top):
        allowed = _allowed(lv, top + 1, prefix[-1]) if top < n - 1 else 0
        t = min(max(allowed.bit_count() - _SPLIT_FREE_BITS, 0), _SPLIT_MAX_FIXED)
        fix = 0
        rest = allowed
        for _ in range(t):
            low = rest & -rest
            fix |= low
            rest ^= low
        pattern = fix
        while True:
            chunks.append((prefix, fix, pattern))
            if pattern == 0:
                break
            pattern = (pattern - 1) & fix
    return tuple(chunks)


def alpha_census(n: int, part: tuple[int, int] | None = None) -> Counter:
    """Counter of alpha(S/I) over every proper nonzero ideal (one DFS pass).

    Keys are the full tuples (1, a_1, ..., a_n); the downset at level d has
    a_d faces, and a_n is always 0 (level n is not walked, as in
    ``enumerate_downsets``).  Much faster than materializing ideals: the
    per-leaf work is a popcount.  ``part = (num_parts, idx)`` restricts the
    walk to one slice of the work chunks; the union over all idx reproduces
    the whole census exactly.
    """
    _check_exhaustive_n(n)
    chunks = _chunk_specs(n)
    if part is not None:
        num_parts, idx = part
        if num_parts < 1 or not 0 <= idx < num_parts:
            raise ValueError(f"bad partition {part}")
        chunks = chunks[idx::num_parts]
    lv = _levels(n)
    counts: dict[tuple[int, ...], int] = {}
    full_masks = lv.full
    facet_bits = lv.facet_bits
    last = n - 1

    def rec(d: int, allowed: int, pattern: int, key: tuple[int, ...]):
        # the level-d selections are s | pattern for every subset s of allowed
        s = allowed
        while True:
            sel = s | pattern
            if d == last:
                leaf = key + (sel.bit_count(), 0)
                counts[leaf] = counts.get(leaf, 0) + 1
            else:
                if sel == full_masks[d]:
                    nxt = full_masks[d + 1]
                else:
                    nxt = 0
                    for i, req in enumerate(facet_bits[d + 1]):
                        if req & ~sel == 0:
                            nxt |= 1 << i
                rec(d + 1, nxt, 0, key + (sel.bit_count(),))
            if s == 0:
                return
            s = (s - 1) & allowed

    for prefix, fix, pattern in chunks:
        key = (1,) + tuple(s.bit_count() for s in prefix)
        d = len(prefix) + 1
        if d > last:
            counts[key + (0,)] = counts.get(key + (0,), 0) + 1
        else:
            rec(d, _allowed(lv, d, prefix[-1]) & ~fix, pattern, key)
    return Counter(counts)


# --- compressed complexes -------------------------------------------------------

def compressed_complex_ideal(n: int, alpha: tuple[int, ...]) -> Ideal:
    """The ideal whose quotient complex takes the first alpha[j] faces of each
    level in colex order.  Valid only for downward-closed (Kruskal-Katona
    consistent) alpha vectors; raises ValueError otherwise.
    """
    if len(alpha) != n + 1 or alpha[0] != 1:
        raise ValueError("alpha must be (1, a_1, ..., a_n)")
    lv = _levels(n) if n <= EXHAUSTIVE_N_MAX else _Levels(n)
    # each level lists its masks in ascending, i.e. colex, order
    leaf = tuple((1 << a) - 1 for a in alpha[1:])
    ideal = Ideal(n, tuple(Monomial(m) for m in _gens_from_levels(lv, leaf)))
    # the quotient keeps exactly the chosen faces iff the families are closed
    if tuple(alpha_of_quotient(ideal)) != tuple(alpha):
        raise ValueError("alpha not realizable: its colex families are not a complex")
    return ideal


def find_ideal_with_alpha(n: int, alpha: tuple[int, ...]) -> Ideal:
    """An ideal whose quotient alpha vector is ``alpha``: its compressed complex."""
    return compressed_complex_ideal(n, alpha)


# --- random generation ----------------------------------------------------------

def default_degree_weights(n: int) -> dict[int, float]:
    """Generator-degree distribution weighted toward [2, n-2]."""
    w = {d: 1.0 for d in range(1, n + 1)}
    for d in range(2, n - 1):
        w[d] = 6.0
    if n >= 3:
        w[n - 1] = 2.0
    if n >= 2:
        w[n] = 0.5
    return w


def random_gen_masks(n: int, rng: random.Random,
                     degree_weights: dict[int, float] | None = None) -> tuple[int, ...]:
    """Minimalized generator masks of one random ideal (always proper, nonzero)."""
    weights = degree_weights or default_degree_weights(n)
    degrees = sorted(weights)
    cum = []
    total = 0.0
    for d in degrees:
        total += weights[d]
        cum.append(total)
    g = rng.randint(1, 3 * n)
    masks = []
    for _ in range(g):
        d = rng.choices(degrees, cum_weights=cum)[0]
        mask = 0
        for v in rng.sample(range(n), d):
            mask |= 1 << v
        masks.append(mask)
    return minimalize(masks)


def random_ideal(n: int, rng: random.Random,
                 degree_weights: dict[int, float] | None = None) -> Ideal:
    """One random proper nonzero ideal; deterministic given the rng state."""
    if n < 2:
        raise ValueError("random_ideal needs n >= 2")
    if n > N_MAX:
        raise CapacityError(f"random_ideal: n={n} exceeds cap {N_MAX}")
    while True:
        masks = random_gen_masks(n, rng, degree_weights)
        ideal = Ideal(n, tuple(Monomial(m) for m in masks))
        if not ideal.is_zero and not ideal.is_unit:
            return ideal


def sample_rng(seed: int, n: int, index: int) -> random.Random:
    """The rng for sample ``index`` of a run: worker-count independent."""
    return random.Random(f"{seed}:{n}:{index}")


# --- plans and reports -----------------------------------------------------------

@dataclass(frozen=True)
class EnumerationPlan:
    """What corpus to scan: exhaustive at small n, or seeded random samples."""

    n: int
    mode: str  # "exhaustive" | "random"
    sample_count: int = 0
    seed: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive":
            _check_exhaustive_n(self.n)
        else:
            if self.n < 2 or self.n > N_MAX:
                raise CapacityError(f"random mode needs 2 <= n <= {N_MAX}, got {self.n}")
            if self.sample_count < 1:
                raise ValueError("random mode needs sample_count >= 1")
            if self.seed is None:
                raise ValueError("random mode needs an explicit seed")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class CheckerTally:
    applicable: int = 0
    passed: int = 0
    failed: int = 0


@dataclass
class VerifySummary:
    n: int
    mode: str
    scanned: int
    elapsed: float
    seed: int | None
    sample_count: int
    workers: int
    checks: dict[str, CheckerTally]
    witnesses: list[dict]
    distinct_profiles: int
    q_histogram: dict[int, int]
    lem_gate_excluded: int

    @property
    def total_failures(self) -> int:
        return sum(t.failed for t in self.checks.values())


@dataclass
class SearchReport:
    predicate: str
    n_values: tuple[int, ...]
    mode: str
    instances_scanned: int
    witnesses: list[dict]
    elapsed: float
    seed: int | None
    status: str  # "witnesses-found" | "none-exhaustive" | "inconclusive"


# --- harness ---------------------------------------------------------------------

_WITNESS_CAP_PER_TASK = 25
_SAMPLE_TASK_SIZE = 2000


def _census_task(args):
    """One slice of the alpha census, in the shape of a _sample_task result."""
    n, part = args
    census = alpha_census(n, part)
    return {(alpha, None): c for alpha, c in census.items()}, [], sum(census.values())


def _failing(outcome, names) -> tuple[str, ...]:
    """The named checks that apply to a ProfileOutcome and fail on it."""
    return tuple(name for name in names
                 if outcome.flags[CHECK_ORDER.index(name)] == (True, False))


def _witnesses(ideal: Ideal, failing, **extra) -> list[dict]:
    """Witnesses of the failing checks, each from a fresh full evaluation."""
    return [w | extra for w in (witness_from_ideal(ideal, name) for name in failing)
            if w is not None]


def _sample_task(args):
    """Scan sample indices [lo, hi): returns (profile counts, witnesses, scanned).

    Keys are (alpha(S/I), principal).  The first sample of each failing key
    becomes a witness, until the task holds _WITNESS_CAP_PER_TASK of them.
    """
    n, seed, lo, hi, names = args
    counts: dict[tuple, int] = {}
    witnesses: list[dict] = []
    for i in range(lo, hi):
        masks = random_gen_masks(n, sample_rng(seed, n, i))
        key = (complement_counts(n, alpha_counts_of_ideal(n, masks)), len(masks) == 1)
        if key in counts:
            counts[key] += 1
            continue
        counts[key] = 1
        failing = _failing(evaluate_profile(n, *key), names)
        if failing and len(witnesses) < _WITNESS_CAP_PER_TASK:
            ideal = Ideal(n, tuple(Monomial(m) for m in masks))
            witnesses += _witnesses(ideal, failing, sample_index=i)
    return counts, witnesses, hi - lo


def _pool_map(workers: int, fn, tasks: list):
    """Yield fn(task) for every task, in task order.

    With more than one worker and task, at most workers + 2 tasks are in
    flight; closing the generator early cancels the tasks not yet started.
    """
    if workers <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        todo = iter(tasks)
        pending = deque(pool.submit(fn, t) for t in islice(todo, workers + 2))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, t) for t in islice(todo, 1))
                yield result
        finally:
            pool.shutdown(cancel_futures=True)


def _scan(plan: EnumerationPlan, names, max_witnesses: int | None = None):
    """Run the plan's tasks and merge them: (profile counts, outcomes, witnesses, scanned).

    Random mode stops after the task that brings the witness count to
    ``max_witnesses`` (whole tasks only, so the scanned count stays
    deterministic); ``outcomes`` is then empty.  Census tasks carry no
    witnesses: exhaustive mode evaluates each merged profile once, returns
    those outcomes, and materializes failing profiles until it holds
    ``max_witnesses`` witnesses.
    """
    if plan.mode == "exhaustive":
        num_parts = 8 * plan.workers if plan.workers > 1 else 1
        task_fn, tasks = _census_task, [(plan.n, (num_parts, i)) for i in range(num_parts)]
    else:
        task_fn, tasks = _sample_task, [
            (plan.n, plan.seed, lo, min(lo + _SAMPLE_TASK_SIZE, plan.sample_count), tuple(names))
            for lo in range(0, plan.sample_count, _SAMPLE_TASK_SIZE)]
    cap = float("inf") if max_witnesses is None else max_witnesses
    counts: dict[tuple, int] = {}
    witnesses: list[dict] = []
    scanned = 0
    with closing(_pool_map(plan.workers, task_fn, tasks)) as results:
        for task_counts, task_witnesses, task_scanned in results:
            for key, c in task_counts.items():
                counts[key] = counts.get(key, 0) + c
            witnesses += task_witnesses
            scanned += task_scanned
            if plan.mode == "random" and len(witnesses) >= cap:
                break
    outcomes: dict[tuple, tuple] = {}
    if plan.mode == "exhaustive":
        for key in counts:
            outcome = outcomes[key] = evaluate_profile(plan.n, *key)
            failing = _failing(outcome, names)
            if failing and len(witnesses) < cap:
                witnesses += _witnesses(find_ideal_with_alpha(plan.n, key[0]), failing)
    return counts, outcomes, witnesses[:max_witnesses], scanned


def _tally_profiles(n, profile_counts, outcomes, names):
    """Aggregate per-profile counts into per-checker tallies; a profile
    missing from ``outcomes`` is evaluated here."""
    tallies = {name: CheckerTally() for name in names}
    q_hist: dict[int, int] = {}
    gate_excluded = 0
    for key, count in profile_counts.items():
        outcome = outcomes.get(key) or evaluate_profile(n, *key)
        q_hist[outcome.q] = q_hist.get(outcome.q, 0) + count
        if outcome.principal or not outcome.in_m2:
            gate_excluded += count
        for name in names:
            applicable, passed = outcome.flags[CHECK_ORDER.index(name)]
            if not applicable:
                continue
            t = tallies[name]
            t.applicable += count
            if passed:
                t.passed += count
            else:
                t.failed += count
    return tallies, q_hist, gate_excluded


def run_verification(plan: EnumerationPlan, check_names=VERIFY_CHECKS) -> VerifySummary:
    """Scan the planned corpus and tally every requested check.

    Exhaustive mode aggregates the alpha census; random mode draws the seeded
    samples.  Failing profiles are materialized into re-verified witnesses.
    """
    for name in check_names:
        if name not in CHECK_ORDER:
            raise ValueError(f"unknown check {name!r}")
    start = time.monotonic()
    counts, outcomes, witnesses, scanned = _scan(plan, check_names)
    tallies, q_hist, gate_excluded = _tally_profiles(plan.n, counts, outcomes, check_names)
    return VerifySummary(
        n=plan.n,
        mode=plan.mode,
        scanned=scanned,
        elapsed=time.monotonic() - start,
        seed=plan.seed,
        sample_count=plan.sample_count,
        workers=plan.workers,
        checks=tallies,
        witnesses=witnesses,
        distinct_profiles=len(counts),
        q_histogram=dict(sorted(q_hist.items())),
        lem_gate_excluded=gate_excluded,
    )


def _search_status(mode: str, witnesses) -> str:
    return ("witnesses-found" if witnesses else
            "none-exhaustive" if mode == "exhaustive" else "inconclusive")


def search_counterexample(plan: EnumerationPlan, predicate: str,
                          max_witnesses: int = 1) -> SearchReport:
    """Scan one corpus for failures of one named check.

    Random mode stops as soon as a task of samples has brought the count of
    verified witnesses to ``max_witnesses`` (the scanned count stays
    deterministic: whole tasks only); exhaustive mode materializes at most
    ``max_witnesses`` failing profiles.  Every witness re-verifies through a
    fresh full evaluation before being reported.
    """
    if predicate not in CHECK_ORDER:
        raise ValueError(f"unknown predicate {predicate!r}")
    start = time.monotonic()
    _, _, witnesses, scanned = _scan(plan, (predicate,), max_witnesses)
    return SearchReport(predicate, (plan.n,), plan.mode, scanned, witnesses,
                        time.monotonic() - start, plan.seed,
                        _search_status(plan.mode, witnesses))


def search_n_range(predicate: str, n_values, mode: str, sample_count: int,
                   seed: int | None, workers: int,
                   max_witnesses: int) -> tuple[SearchReport, list[SearchReport]]:
    """Search each n in turn: the combined report and the per-n reports.

    Random mode splits ``sample_count`` evenly over the n values (the first
    ones take the remainder; an n whose share is 0 is skipped).  The search
    stops at the first n that brings the witness count to ``max_witnesses``.
    """
    per_n: list[SearchReport] = []
    witnesses: list[dict] = []
    share, extra = divmod(sample_count, len(n_values))
    for i, n in enumerate(n_values):
        if mode == "random":
            count = share + (1 if i < extra else 0)
            if count == 0:
                continue
            plan = EnumerationPlan(n=n, mode=mode, sample_count=count, seed=seed,
                                   workers=workers)
        else:
            plan = EnumerationPlan(n=n, mode=mode, workers=workers)
        report = search_counterexample(plan, predicate, max_witnesses - len(witnesses))
        per_n.append(report)
        witnesses.extend(report.witnesses)
        if len(witnesses) >= max_witnesses:
            break
    combined = SearchReport(predicate, tuple(n_values), mode,
                            sum(r.instances_scanned for r in per_n), witnesses,
                            sum(r.elapsed for r in per_n), seed,
                            _search_status(mode, witnesses))
    return combined, per_n
