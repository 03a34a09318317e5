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
run's tasks evaluate each profile once.  ``alpha_census`` counts the levels
above each level once per distinct set of faces the lower levels allow (a
memo), in one process; only random runs are split into tasks for the worker
pool.

Random generation draws a generator count uniform in [1, 3n] and generator
degrees from a distribution weighted toward [2, n-2], then minimalizes.
Sample i of a run is drawn from its own Random seeded with "seed:n:i", making
runs bit-reproducible independently of worker count.
"""

from __future__ import annotations

import random
import time
from bisect import bisect
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from math import ceil, comb, log

from .combinatorics import N_MAX, complement_counts
from .errors import CapacityError
from .ideals import (ALPHA_N_MAX, Ideal, Monomial, alpha_counts_of_ideal,
                     alpha_of_quotient, minimalize)
from .theorems import (CHECK_ORDER, VERIFY_CHECKS, evaluate_profile,
                       witness_from_ideal)

EXHAUSTIVE_N_MAX = 6

# downward-closed family counts for the Boolean lattice on n points, minus the
# two trivial downsets; equals the number of proper nonzero ideals
PROPER_IDEAL_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579, 6: 7828352}


# --- level tables -------------------------------------------------------------

# ``_allowed`` reads a level selection in slices of this many bits
_SLICE_BITS = 10
_SLICE_MASK = (1 << _SLICE_BITS) - 1


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


@lru_cache(maxsize=None)
def _slice_tables(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """One table per _SLICE_BITS-bit slice of a level-(d-1) selection: entry v
    holds the level-d sets whose facets inside that slice all lie in v."""
    lv = _levels(n)
    size = len(lv.masks[d - 1])
    tables = []
    for lo in range(0, size, _SLICE_BITS):
        reqs = [req >> lo & _SLICE_MASK for req in lv.facet_bits[d]]
        tables.append(tuple(sum(1 << i for i, req in enumerate(reqs) if req & ~v == 0)
                            for v in range(1 << min(_SLICE_BITS, size - lo))))
    return tuple(tables)


def _allowed(lv: _Levels, d: int, prev: int) -> int:
    """Level-d sets whose facets all lie in the level-(d-1) selection ``prev``."""
    allowed = lv.full[d]
    for table in _slice_tables(lv.n, d):
        allowed &= table[prev & _SLICE_MASK]
        prev >>= _SLICE_BITS
    return allowed


# --- exhaustive enumeration ----------------------------------------------------

def _check_exhaustive_n(n: int):
    if not 1 <= n <= EXHAUSTIVE_N_MAX:
        raise CapacityError(
            f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_N_MAX}, got {n}")


def enumerate_downsets(n: int):
    """Yield every proper-nonzero-ideal downset as per-level index bitmasks.

    Levels 1..n-1 are walked depth first, each level's subsets in descending
    bitmask order.  Level n is not walked: its one face lies only in the full
    downset (I = 0), which is excluded, so every leaf ends in an empty level n.
    """
    _check_exhaustive_n(n)
    lv = _levels(n)

    def rec(d: int, prefix: tuple[int, ...]):
        if d == n:
            yield prefix + (0,)
            return
        allowed = _allowed(lv, d, prefix[-1] if prefix else 0)
        s = allowed
        while True:
            yield from rec(d + 1, prefix + (s,))
            if s == 0:
                return
            s = (s - 1) & allowed

    yield from rec(1, ())


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


def alpha_census(n: int) -> Counter:
    """Counter of alpha(S/I) over every proper nonzero ideal.

    Keys are the full tuples (1, a_1, ..., a_n); the downset at level d has
    a_d faces, and a_n is always 0 (level n is not walked, as in
    ``enumerate_downsets``).  Levels d..n-1 depend on the levels below only
    through the level-d sets they allow, so ``suffix(d, allowed)`` counts the
    selections of levels d..n-1 by their tail (a_d, ..., a_{n-1}) once per
    distinct ``allowed`` mask: C(m, k) subsets of size k at level n-1, and
    below it the subsets grouped by (size, next allowed mask) before their
    memoized tails are merged.
    """
    _check_exhaustive_n(n)
    lv = _levels(n)

    @lru_cache(maxsize=None)
    def suffix(d: int, allowed: int) -> dict[tuple[int, ...], int]:
        if d == n:  # n = 1: there is no level to select
            return {(): 1}
        if d == n - 1:
            m = allowed.bit_count()
            return {(k,): comb(m, k) for k in range(m + 1)}
        groups: dict[tuple[int, int], int] = {}
        s = allowed
        while True:
            group = (s.bit_count(), _allowed(lv, d + 1, s))
            groups[group] = groups.get(group, 0) + 1
            if s == 0:
                break
            s = (s - 1) & allowed
        tails: dict[tuple[int, ...], int] = {}
        for (k, nxt), c in groups.items():
            for tail, count in suffix(d + 1, nxt).items():
                key = (k,) + tail
                tails[key] = tails.get(key, 0) + c * count
        return tails

    return Counter({(1,) + tail + (0,): count
                    for tail, count in suffix(1, _allowed(lv, 1, 0)).items()})


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


@lru_cache(maxsize=None)
def _degree_table(n: int) -> tuple[tuple[int, ...], tuple[float, ...], tuple[bool, ...]]:
    """The generator degrees, their cumulative (float) weights, and for each
    degree d whether ``Random.sample(range(n), d)`` keeps a pool.

    ``sample`` keeps a pool when n is at most its ``setsize``, 21 plus a set's
    table size for d > 5; otherwise it redraws repeated indices.
    """
    weights = default_degree_weights(n)
    degrees = tuple(sorted(weights))
    cum = tuple(accumulate(weights[d] for d in degrees))
    pooled = tuple(n <= 21 + (4 ** ceil(log(d * 3, 4)) if d > 5 else 0) for d in degrees)
    return degrees, cum, pooled


def random_gen_masks(n: int, rng: random.Random) -> tuple[int, ...]:
    """Minimalized generator masks of one random ideal (always proper, nonzero).

    The draws are, draw for draw, those of ``rng.randint(1, 3 * n)`` generators,
    each of degree ``d = rng.choices(degrees, cum_weights=cum)[0]`` on the
    variables ``rng.sample(range(n), d)``, as CPython's ``Lib/random.py``
    (3.10-3.13) makes them for a ``random.Random``; they call ``getrandbits``
    and ``random`` directly instead of going through those wrappers:

    * ``_randbelow_with_getrandbits(m)`` draws ``getrandbits(m.bit_length())``
      until the value is below m; ``randint(1, 3n)`` is 1 plus that for 3n;
    * ``choices`` bisects ``random() * cum[-1]`` into ``cum[:-1]``;
    * ``sample`` with a pool runs a partial Fisher-Yates: index
      ``j = randbelow(n - i)`` takes ``pool[j]``, which ``pool[n - i - 1]``
      replaces; without one it redraws ``j = randbelow(n)`` until it is new.

    ``tests/test_corpus.py`` pins the masks and the generator state after the
    draws against the stdlib calls.
    """
    degrees, cum, pooled = _degree_table(n)
    getrandbits, rand = rng.getrandbits, rng.random
    total, hi = cum[-1], len(degrees) - 1
    width = 3 * n
    bits = width.bit_length()
    g = getrandbits(bits)
    while g >= width:
        g = getrandbits(bits)
    masks = []
    for _ in range(1 + g):
        i = bisect(cum, rand() * total, 0, hi)
        d = degrees[i]
        mask = 0
        if pooled[i]:
            pool = list(range(n))
            for size in range(n, n - d, -1):
                bits = size.bit_length()
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                mask |= 1 << pool[j]
                pool[j] = pool[size - 1]
        else:
            bits = n.bit_length()
            while mask.bit_count() < d:
                j = getrandbits(bits)
                if j < n:
                    mask |= 1 << j
        masks.append(mask)
    return minimalize(masks)


def random_ideal(n: int, rng: random.Random) -> Ideal:
    """One random proper nonzero ideal; deterministic given the rng state.

    It has at least one generator, and every generator has degree >= 1.
    """
    if n < 2:
        raise ValueError("random_ideal needs n >= 2")
    if n > N_MAX:
        raise CapacityError(f"random_ideal: n={n} exceeds cap {N_MAX}")
    return Ideal(n, tuple(Monomial(m) for m in random_gen_masks(n, rng)))


def sample_rng(seed: int, n: int, index: int) -> random.Random:
    """The rng for sample ``index`` of a run: worker-count independent."""
    return random.Random(f"{seed}:{n}:{index}")


# --- plans and reports -----------------------------------------------------------

def _check_random_n(n: int):
    # each sample's alpha counts walk the 2^n subset lattice
    if not 2 <= n <= ALPHA_N_MAX:
        raise CapacityError(f"random mode needs 2 <= n <= {ALPHA_N_MAX}, got {n}")


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
            _check_random_n(self.n)
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


def _failing(outcome, names) -> tuple[str, ...]:
    """The named checks whose verdict in a ProfileOutcome is a failure."""
    return tuple(name for name in names if outcome.verdicts[CHECK_ORDER.index(name)])


def _witnesses(ideal: Ideal, failing, **extra) -> list[dict]:
    """Witnesses of the failing checks, each from a fresh full evaluation."""
    return [w | extra for w in (witness_from_ideal(ideal, name) for name in failing)
            if w is not None]


def _sample_task(args):
    """Scan sample indices [lo, hi): returns (profile counts, profile outcomes,
    witnesses, scanned).

    Keys are (alpha(S/I), principal); each key is evaluated once.  The first
    sample of each failing key becomes a witness, until the task holds
    _WITNESS_CAP_PER_TASK of them.
    """
    n, seed, lo, hi, names = args
    counts: dict[tuple, int] = {}
    outcomes: dict[tuple, tuple] = {}
    witnesses: list[dict] = []
    for i in range(lo, hi):
        masks = random_gen_masks(n, sample_rng(seed, n, i))
        key = (complement_counts(n, alpha_counts_of_ideal(n, masks)), len(masks) == 1)
        if key in counts:
            counts[key] += 1
            continue
        counts[key] = 1
        outcome = outcomes[key] = evaluate_profile(n, *key)
        failing = _failing(outcome, names)
        if failing and len(witnesses) < _WITNESS_CAP_PER_TASK:
            ideal = Ideal(n, tuple(Monomial(m) for m in masks))
            witnesses += _witnesses(ideal, failing, sample_index=i)
    return counts, outcomes, witnesses, hi - lo


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
    """Scan the plan's corpus: (profile counts, outcomes, witnesses, scanned).

    ``outcomes`` holds the ProfileOutcome of every key of the profile counts.
    Exhaustive mode runs the alpha census in this process, evaluates each of
    its profiles once and materializes failing profiles until it holds
    ``max_witnesses`` witnesses.  Random mode runs the sample tasks through
    the pool, merges the outcomes they computed, and stops after the task
    that brings the witness count to ``max_witnesses`` (whole tasks only, so
    the scanned count stays deterministic).
    """
    cap = float("inf") if max_witnesses is None else max_witnesses
    counts: dict[tuple, int] = {}
    outcomes: dict[tuple, tuple] = {}
    witnesses: list[dict] = []
    scanned = 0
    if plan.mode == "exhaustive":
        for alpha, c in alpha_census(plan.n).items():
            key = (alpha, None)
            counts[key] = c
            scanned += c
            outcome = outcomes[key] = evaluate_profile(plan.n, *key)
            failing = _failing(outcome, names)
            if failing and len(witnesses) < cap:
                witnesses += _witnesses(find_ideal_with_alpha(plan.n, alpha), failing)
    else:
        tasks = [(plan.n, plan.seed, lo, min(lo + _SAMPLE_TASK_SIZE, plan.sample_count),
                  tuple(names)) for lo in range(0, plan.sample_count, _SAMPLE_TASK_SIZE)]
        with closing(_pool_map(plan.workers, _sample_task, tasks)) as results:
            for task_counts, task_outcomes, task_witnesses, task_scanned in results:
                for key, c in task_counts.items():
                    counts[key] = counts.get(key, 0) + c
                outcomes.update(task_outcomes)
                witnesses += task_witnesses
                scanned += task_scanned
                if len(witnesses) >= cap:
                    break
    return counts, outcomes, witnesses[:max_witnesses], scanned


def _tally_profiles(profile_counts, outcomes):
    """Fold the profile counts and the outcomes of their keys (every key has
    one) into the VERIFY_CHECKS tallies, the q histogram, and the count of
    profiles outside the bound-equivalence gate, where that check's verdict
    is None."""
    tallies = {name: CheckerTally() for name in VERIFY_CHECKS}
    q_hist: dict[int, int] = {}
    gate_excluded = 0
    for key, count in profile_counts.items():
        outcome = outcomes[key]
        q_hist[outcome.q] = q_hist.get(outcome.q, 0) + count
        verdicts = dict(zip(CHECK_ORDER, outcome.verdicts))
        if verdicts["bound-equivalence"] is None:
            gate_excluded += count
        for name, t in tallies.items():
            verdict = verdicts[name]
            if verdict is None:
                continue
            t.applicable += count
            if verdict:
                t.failed += count
            else:
                t.passed += count
    return tallies, q_hist, gate_excluded


def run_verification(plan: EnumerationPlan) -> VerifySummary:
    """Scan the planned corpus and tally every VERIFY_CHECKS check.

    Exhaustive mode aggregates the alpha census; random mode draws the seeded
    samples.  Failing profiles are materialized into re-verified witnesses.
    """
    start = time.monotonic()
    counts, outcomes, witnesses, scanned = _scan(plan, VERIFY_CHECKS)
    tallies, q_hist, gate_excluded = _tally_profiles(counts, outcomes)
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
    # every n is checked before the first scan, an n with no share too
    if mode == "random":
        for n in n_values:
            _check_random_n(n)
        share, extra = divmod(sample_count, len(n_values))
        counts = [share + (1 if i < extra else 0) for i in range(len(n_values))]
        plans = [EnumerationPlan(n=n, mode=mode, sample_count=c, seed=seed, workers=workers)
                 for n, c in zip(n_values, counts) if c]
    else:
        plans = [EnumerationPlan(n=n, mode=mode, workers=workers) for n in n_values]
    per_n: list[SearchReport] = []
    witnesses: list[dict] = []
    for plan in plans:
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
