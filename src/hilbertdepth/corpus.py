"""Corpora of squarefree ideals: exhaustive enumeration, seeded sampling, search.

Proper nonzero ideals over n variables correspond bijectively to the downsets
of the Boolean lattice that contain the empty set and are not the whole
lattice (the downset is the set of monomials *outside* the ideal, i.e. the
faces of a simplicial complex; the minimal non-faces are the generators).
``enumerate_ideals`` walks exactly these downsets by backtracking over degree
levels, so it is duplicate-free by construction; the supported ceiling is
n <= EXHAUSTIVE_N_MAX (downset counts explode beyond ~7.8M at n = 6).  At
each level the walk holds the sets whose facets all lie in the level below,
and the ones it leaves out of the downset are that degree's generators.
Level n is never chosen: its one face lies only in the full downset (I = 0),
which is excluded, so the walk chooses levels 1..n-1 only.

The verification harness aggregates per distinct alpha vector: every check it
runs is a function of alpha(S/I) alone, so exhaustive runs tally an
"alpha census" instead of materializing 7.8M ideal objects, and a sample task
evaluates each of its profiles once.  ``alpha_census`` counts the levels above
each level once per distinct set of faces the lower levels allow (a memo), and
groups the subsets of that set slice by slice rather than one by one.  A plan
builds its corpus in parts: the census as one, in this process, or each sample
task as one from the worker pool; a profile's outcome is the same in every part,
so each report folds the parts as they arrive, and no map of every profile is
built.  The scan, in this process, realizes one witness per failing profile and check.

Random generation draws a generator count uniform in [1, 3n] and generator
degrees from a distribution weighted toward [2, n-2].  A sample's alpha
counts read the upward closure of its raw draws, which equals that of their
minimal antichain, so the draws are minimalized only in ``random_ideal``,
which also realizes a sample's witness by redrawing it from its seed.
Sample i of a run is drawn from its own Random seeded with "seed:n:i", making
runs bit-reproducible independently of worker count.
"""

from __future__ import annotations

import random
import time
from bisect import bisect
from collections import Counter, deque
from contextlib import closing
from functools import lru_cache
from itertools import accumulate, islice
from typing import NamedTuple

from .combinatorics import (N_MAX, colex_mask, complement_counts, kk_upper_bound,
                            macaulay_rep)
from .errors import CapacityError
from .ideals import (ALPHA_N_MAX, Ideal, alpha_counts_of_ideal,
                     alpha_of_quotient, minimalize)
from .theorems import (CHECK_ORDER, VERIFY_CHECKS, evaluate_profile,
                       witness_from_ideal)

EXHAUSTIVE_N_MAX = 6

# downward-closed family counts for the Boolean lattice on n points, minus the
# two trivial downsets; equals the number of proper nonzero ideals
PROPER_IDEAL_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579, 6: 7828352}


# --- level tables -------------------------------------------------------------

# ``_allowed`` and ``alpha_census`` read a level selection in slices of this many bits
_SLICE_BITS = 10
_SLICE_MASK = (1 << _SLICE_BITS) - 1


@lru_cache(maxsize=None)
def _level_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """The degree-d variable-masks of each level d = 0..n, in ascending order;
    bit i of a level selection stands for the level's i-th mask."""
    masks: list[list[int]] = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        masks[m.bit_count()].append(m)
    return tuple(map(tuple, masks))


@lru_cache(maxsize=None)
def _slice_tables(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """One table per _SLICE_BITS-bit slice of a level-(d-1) selection: entry v
    holds the level-d sets whose facets inside that slice all lie in v.

    With has[b] the level-d sets that have slice bit b as a facet, the sets
    with a facet in c are missing[c] = missing[c ^ low] | has[b], where
    low = 1 << b is c's lowest bit, and table[v] = full & ~missing[top ^ v]
    (top the slice's all-ones value) keeps the sets with no facet outside v:
    2^B steps for a B-bit slice.
    """
    below, level = _level_masks(n)[d - 1:d + 1]
    index = {m: i for i, m in enumerate(level)}
    full = (1 << len(level)) - 1
    tables = []
    for lo in range(0, len(below), _SLICE_BITS):
        width = min(_SLICE_BITS, len(below) - lo)
        # the level-d sets that have f as a facet are f plus one more variable
        has = [sum(1 << index[f | 1 << v] for v in range(n) if not f >> v & 1)
               for f in below[lo:lo + width]]
        missing = [0] * (1 << width)
        for c in range(1, 1 << width):
            low = c & -c
            missing[c] = missing[c ^ low] | has[low.bit_length() - 1]
        top = (1 << width) - 1
        tables.append(tuple(full & ~missing[top ^ v] for v in range(top + 1)))
    return tuple(tables)


def _allowed(n: int, d: int, prev: int) -> int:
    """Level-d sets whose facets all lie in the level-(d-1) selection ``prev``."""
    allowed = (1 << len(_level_masks(n)[d])) - 1
    for table in _slice_tables(n, d):
        allowed &= table[prev & _SLICE_MASK]
        prev >>= _SLICE_BITS
    return allowed


# --- exhaustive enumeration ----------------------------------------------------

def _check_exhaustive_n(n: int):
    if not 1 <= n <= EXHAUSTIVE_N_MAX:
        raise CapacityError(
            f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_N_MAX}, got {n}")


def enumerate_ideals(n: int):
    """Yield every proper nonzero squarefree ideal on n variables exactly once.

    Levels 1..n-1 are walked depth first from level 0's one face, the empty
    set, each level's subsets of the sets it allows in descending bitmask
    order.  The degree-d generators, the minimal non-faces, are the allowed
    sets the subset leaves out.  Level n is never chosen: its one face lies
    only in the full downset (I = 0), which is excluded, so its allowed set
    is all generator.  The generators come out sorted by (degree, mask).
    """
    _check_exhaustive_n(n)  # before the level table is built
    masks = _level_masks(n)

    def rec(d: int, prev: int, gens: tuple[int, ...]):
        allowed = _allowed(n, d, prev)
        if d == n:
            yield Ideal(n, gens + tuple(m for i, m in enumerate(masks[n]) if allowed >> i & 1))
            return
        s = allowed
        while True:
            left = allowed & ~s
            yield from rec(d + 1, s, gens + tuple(m for i, m in enumerate(masks[d])
                                                  if left >> i & 1))
            if s == 0:
                return
            s = (s - 1) & allowed

    yield from rec(1, 1, ())


def alpha_census(n: int) -> Counter:
    """Counter of alpha(S/I) over every proper nonzero ideal.

    Keys are the full tuples (1, a_1, ..., a_n); the downset at level d has
    a_d faces, and a_n is always 0 (level n is never chosen, as in
    ``enumerate_ideals``).  Levels d..n-1 depend on the levels below only
    through the level-d sets they allow, so ``suffix(d, allowed)`` counts the
    selections of levels d..n-1 by their tail (a_d, ..., a_{n-1}) once per
    distinct ``allowed`` mask: the subsets grouped by (size, next allowed
    mask) before their memoized tails are merged.  A subset's size is the sum
    of its slices' sizes and its next allowed mask the AND of their table
    entries, so ``slice_groups`` groups each _SLICE_BITS-bit slice's subsets
    once, and their product, merged slice by slice, gives the groups: a
    level costs the sum of 2^|slice| plus the product of the per-slice group
    counts, not 2^|allowed|.
    """
    _check_exhaustive_n(n)
    masks = _level_masks(n)

    @lru_cache(maxsize=None)
    def slice_groups(d: int, i: int, bits: int) -> dict[tuple[int, int], int]:
        table = _slice_tables(n, d + 1)[i]
        groups: dict[tuple[int, int], int] = {}
        p = bits
        while True:
            group = (p.bit_count(), table[p])
            groups[group] = groups.get(group, 0) + 1
            if p == 0:
                return groups
            p = (p - 1) & bits

    @lru_cache(maxsize=None)
    def suffix(d: int, allowed: int) -> dict[tuple[int, ...], int]:
        if d == n:  # n = 1: there is no level to select
            return {(): 1}
        groups = {(0, (1 << len(masks[d + 1])) - 1): 1}
        for i in range(len(_slice_tables(n, d + 1))):
            part = slice_groups(d, i, allowed >> i * _SLICE_BITS & _SLICE_MASK).items()
            merged: dict[tuple[int, int], int] = {}
            for (k, nxt), c in groups.items():
                for (k2, nxt2), c2 in part:
                    group = (k + k2, nxt & nxt2)
                    merged[group] = merged.get(group, 0) + c * c2
            groups = merged
        tails: dict[tuple[int, ...], int] = {}
        for (k, nxt), c in groups.items():
            for tail, count in suffix(d + 1, nxt).items():
                key = (k,) + tail
                tails[key] = tails.get(key, 0) + c * count
        return tails

    return Counter({(1,) + tail + (0,): count
                    for tail, count in suffix(1, (1 << n) - 1).items()})


# --- compressed complexes -------------------------------------------------------

def compressed_complex_ideal(alpha: tuple[int, ...]) -> Ideal:
    """The ideal on n = len(alpha) - 1 variables whose quotient complex takes
    the first alpha[d] d-sets of each level d in colex order.  Valid only for
    Kruskal-Katona consistent alpha vectors, 0 <= a_d <= KK^+(a_{d-1}) at
    every level; raises ValueError otherwise, and CapacityError, before any
    unranking, when n exceeds ALPHA_N_MAX, the cap of the closing self-check.

    In colex order a d-set's largest facet is the one that drops its lowest
    element.  So a d-set has all its facets among the first N colex
    (d-1)-sets iff that facet is one of them, and the d-sets that pass this
    test are exactly the first KK^+(N) colex d-sets (every vertex at d = 1).
    The generators of degree d, the minimal non-faces, are therefore the
    d-sets of colex ranks a_d .. KK^+(a_{d-1}) - 1; ascending rank is
    ascending mask, so they come out sorted by (degree, mask).
    ``alpha_of_quotient`` re-checks the result.
    """
    if not alpha or alpha[0] != 1:
        raise ValueError("alpha must be (1, a_1, ..., a_n)")
    n = len(alpha) - 1
    if n > ALPHA_N_MAX:
        raise CapacityError(f"compressed_complex_ideal: n={n} exceeds cap {ALPHA_N_MAX}")
    gens, upper = [], n
    for d, a in enumerate(alpha[1:], 1):
        # by induction every rank range stays within the C(n, d) d-sets
        if not 0 <= a <= upper:
            raise ValueError(f"alpha not realizable: a_{d} = {a} is outside [0, {upper}], "
                             "its Kruskal-Katona range")
        gens += [colex_mask(r, d) for r in range(a, upper)]
        upper = kk_upper_bound(macaulay_rep(a, d))
    ideal = Ideal(n, tuple(gens))
    # the self-check, by counting: the quotient keeps exactly the chosen faces
    if alpha_of_quotient(ideal) != tuple(alpha):
        raise ValueError("alpha not realizable: its colex families are not a complex")
    return ideal


def find_ideal_with_alpha(alpha: tuple[int, ...]) -> Ideal:
    """An ideal whose quotient alpha vector is ``alpha``: its compressed complex."""
    return compressed_complex_ideal(alpha)


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
def _degree_table(n: int):
    """Everything ``random_gen_masks`` draws with at n, computed once per n.

    Returns ``(degrees, cum, steps, bits)``: the generator degrees, their
    cumulative (float) weights, for each degree d the steps of
    ``Random.sample(range(n), d)``'s pooled partial Fisher-Yates as
    ``(size, size.bit_length(), size - 1)`` tuples for size = n, n-1, ...,
    n-d+1, and the variable bits ``(1 << v for v in range(n))`` that a pool
    starts from.  ``sample`` keeps a pool at every n <= 21, since its set
    size is never below 21; above n = 21 ``steps`` is None, and
    ``random_gen_masks`` calls ``sample`` itself.
    """
    weights = default_degree_weights(n)
    degrees = tuple(sorted(weights))
    cum = tuple(accumulate(weights[d] for d in degrees))
    steps = (tuple(tuple((size, size.bit_length(), size - 1) for size in range(n, n - d, -1))
                   for d in degrees) if n <= 21 else None)
    return degrees, cum, steps, tuple(1 << v for v in range(n))


def random_gen_masks(n: int, rng: random.Random) -> list[int]:
    """The generator masks of one random ideal as drawn: in draw order, possibly
    repeated or nested, never 0 (the ideal is always proper and nonzero).
    ``minimalize`` turns them into the ideal's generators.

    The draws are, draw for draw, those of ``rng.randint(1, 3 * n)`` generators,
    each of degree ``d = rng.choices(degrees, cum_weights=cum)[0]`` on the
    variables ``rng.sample(range(n), d)``, as CPython's ``Lib/random.py``
    (3.10-3.13) makes them for a ``random.Random``.  Three of them call
    ``getrandbits`` and ``random`` directly instead of going through those
    wrappers:

    * ``_randbelow_with_getrandbits(m)`` draws ``getrandbits(m.bit_length())``
      until the value is below m; ``randint(1, 3n)`` is 1 plus that for 3n;
    * ``choices`` bisects ``random() * cum[-1]`` into ``cum[:-1]``;
    * at n <= 21, ``sample`` runs a pooled partial Fisher-Yates: index
      ``j = randbelow(size)`` takes ``pool[j]``, which ``pool[size - 1]``
      replaces, for size = n down to n - d + 1.

    Above n = 21 ``sample`` itself runs.  The Fisher-Yates steps come from
    ``_degree_table``: each is one ``(size, bit width, last index)`` tuple,
    and the pool is a copy of the variable bits, so a step ORs ``pool[j]``
    into the mask with no ``bit_length`` call or shift.
    ``tests/test_corpus.py`` pins the masks and the generator state after the
    draws against the stdlib calls.
    """
    degrees, cum, steps, bits = _degree_table(n)
    getrandbits, rand = rng.getrandbits, rng.random
    total, hi = cum[-1], len(degrees) - 1
    width = 3 * n
    w = width.bit_length()
    g = getrandbits(w)
    while g >= width:
        g = getrandbits(w)
    masks = []
    for _ in range(1 + g):
        i = bisect(cum, rand() * total, 0, hi)
        mask = 0
        if steps is None:
            for v in rng.sample(range(n), degrees[i]):
                mask |= bits[v]
        else:
            pool = list(bits)
            for size, w, last in steps[i]:
                j = getrandbits(w)
                while j >= size:
                    j = getrandbits(w)
                mask |= pool[j]
                pool[j] = pool[last]
        masks.append(mask)
    return masks


def random_ideal(n: int, rng: random.Random) -> Ideal:
    """One random proper nonzero ideal; deterministic given the rng state.

    It has at least one generator, and every generator has degree >= 1.
    """
    if n < 2:
        raise ValueError("random_ideal needs n >= 2")
    if n > N_MAX:
        raise CapacityError(f"random_ideal: n={n} exceeds cap {N_MAX}")
    return Ideal(n, minimalize(random_gen_masks(n, rng)))


def sample_rng(seed: int, n: int, index: int) -> random.Random:
    """The rng for sample ``index`` of a run: worker-count independent."""
    return random.Random(f"{seed}:{n}:{index}")


# --- plans and reports -----------------------------------------------------------

class EnumerationPlan(NamedTuple("EnumerationPlan", [
        ("n", int), ("mode", str), ("sample_count", int), ("seed", int | None), ("workers", int)])):
    """What corpus to scan: exhaustive at small n, or seeded random samples.

    Every corpus rule is checked here: an exhaustive corpus draws nothing, so
    it takes no seed or sample count, and a random one needs both; ``parts`` builds it.
    """

    __slots__ = ()

    def __new__(cls, n: int, mode: str, sample_count: int = 0, seed: int | None = None,
                workers: int = 1):
        if mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "exhaustive":
            _check_exhaustive_n(n)
            if seed is not None or sample_count:
                raise ValueError("an exhaustive corpus draws no samples: it takes no seed or "
                                 f"sample count, got seed={seed}, sample_count={sample_count}")
        else:
            # each sample's alpha counts walk the 2^n subset lattice
            if not 2 <= n <= ALPHA_N_MAX:
                raise CapacityError(f"random mode needs 2 <= n <= {ALPHA_N_MAX}, got {n}")
            if seed is None or sample_count < 1:
                raise ValueError("a random corpus needs a seed and a sample count >= 1, "
                                 f"got seed={seed}, sample_count={sample_count}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return super().__new__(cls, n, mode, sample_count, seed, workers)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)

    def parts(self):
        """The corpus as ``(parts, realize)``: its ``_profile_loop`` maps, and the
        map from a profile's source to its ideal and the witness fields that
        locate it.  Exhaustive mode is one part, the alpha census, in this
        process, its sources alphas realized as compressed complexes; random mode
        is one part per sample task, in task order, through the pool (one task
        needs none), its sources sample indices realized by redrawing the sample."""
        n, seed = self.n, self.seed
        if self.mode == "exhaustive":
            census = ((alpha, c, alpha) for alpha, c in alpha_census(n).items())
            return (_pool_map(1, _profile_loop, (census,)),
                    lambda alpha: (find_ideal_with_alpha(alpha), {}))
        tasks = ((n, seed, lo, min(lo + _SAMPLE_TASK_SIZE, self.sample_count))
                 for lo in range(0, self.sample_count, _SAMPLE_TASK_SIZE))
        workers = self.workers if self.sample_count > _SAMPLE_TASK_SIZE else 1
        return (_pool_map(workers, _sample_task, tasks),
                lambda i: (random_ideal(n, sample_rng(seed, n, i)), {"sample_index": i}))


class CheckerTally:
    """One check's counts over a corpus, added to in place by ``run_verification``."""

    def __init__(self):
        self.passed = self.failed = 0

    applicable = property(lambda self: self.passed + self.failed)


class VerifySummary(NamedTuple):
    """One verification run's tallies over the corpus of its ``plan``."""

    plan: EnumerationPlan
    elapsed: float
    checks: dict[str, CheckerTally]
    witnesses: list[dict]
    distinct_profiles: int
    q_histogram: dict[int, int]

    scanned = property(lambda self: sum(self.q_histogram.values()))

    @property
    def total_failures(self) -> int:
        return sum(t.failed for t in self.checks.values())

    @property
    def lem_gate_excluded(self) -> int:
        """Ideals outside the bound-equivalence gate, where it does not apply."""
        return self.scanned - self.checks["bound-equivalence"].applicable


class SearchReport(NamedTuple):
    """One search's result over the plans it checked, one per n, which share a
    mode and seed; its status is read off its witnesses and that mode."""

    predicate: str
    plans: tuple[EnumerationPlan, ...]
    instances_scanned: int
    witnesses: list[dict]
    elapsed: float

    n_values = property(lambda self: tuple(plan.n for plan in self.plans))
    mode = property(lambda self: self.plans[0].mode)
    seed = property(lambda self: self.plans[0].seed)

    @property
    def status(self) -> str:
        return ("witnesses-found" if self.witnesses else
                "none-exhaustive" if self.mode == "exhaustive" else "inconclusive")


# --- harness ---------------------------------------------------------------------

_SAMPLE_TASK_SIZE = 2000


def _profile_loop(items):
    """Evaluate each distinct profile of ``items`` once, in first-seen order.

    ``items`` yields (alpha(S/I), count, source), and ``profiles[alpha]`` is
    ``[count, (Profile, verdicts), source]``: the count summed over the items,
    ``evaluate_profile``'s pair, and the first item's source.
    """
    profiles: dict[tuple, list] = {}
    for alpha, count, source in items:
        profile = profiles.get(alpha)
        if profile is None:
            profiles[alpha] = [count, evaluate_profile(alpha), source]
        else:
            profile[0] += count
    return profiles


def _sample_task(args):
    """Sample indices [lo, hi) through ``_profile_loop``, keyed on alpha(S/I)
    of each sample's raw draws; a sample's source is its index."""
    n, seed, lo, hi = args

    def samples():
        for i in range(lo, hi):
            masks = random_gen_masks(n, sample_rng(seed, n, i))
            yield complement_counts(alpha_counts_of_ideal(n, masks)), 1, i

    return _profile_loop(samples())


def _pool_map(workers: int, fn, tasks):
    """Yield fn(task) for every task of the iterable ``tasks``, in task order.

    Tasks are drawn only as they start: one worker runs them in this process,
    and more keep at most workers + 2 in flight; closing the generator early
    cancels the tasks not yet started and draws no more.
    """
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # imported here: the pool's modules cost every launch ~30 ms, and one worker never needs them
    from concurrent.futures import ProcessPoolExecutor
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
    """Yield the parts of ``plan.parts()``, each a ``_profile_loop`` map with its witnesses.

    This process realizes each profile that fails any of ``names`` in no
    earlier part, in first-seen order, through the plan's ``realize``, into
    one witness per failing check from a fresh full evaluation; one that does
    not re-verify raises RuntimeError.  Realizing stops once the scan holds
    ``max_witnesses``, and the scan returns after that part (whole parts
    only: the scanned count is deterministic).
    """
    cap = float("inf") if max_witnesses is None else max_witnesses
    parts, realize = plan.parts()
    positions = [(name, CHECK_ORDER.index(name)) for name in names]
    realized, found = set(), 0
    with closing(parts):
        for profiles in parts:
            witnesses = []
            for alpha, (_, (_, verdicts), source) in profiles.items():
                failing = [name for name, pos in positions if verdicts[pos]]
                if not failing or found >= cap or alpha in realized:
                    continue
                realized.add(alpha)
                ideal, extra = realize(source)
                for name in failing:
                    witness = witness_from_ideal(ideal, name)
                    if witness is None:
                        raise RuntimeError(f"{name} fails on the profile of n = {plan.n}, alpha = "
                                           f"{alpha}, but its witness {ideal} does not re-verify")
                    witnesses.append(witness | extra)
                found += len(failing)
            yield profiles, witnesses
            if found >= cap:
                return


def run_verification(plan: EnumerationPlan) -> VerifySummary:
    """Scan the planned corpus and tally every VERIFY_CHECKS check.

    Exhaustive mode aggregates the alpha census; random mode draws the seeded
    samples.  Each part of the scan is folded in as it arrives; across parts
    only the set of distinct alphas is kept.  Each failing profile gives one
    re-verified witness per failing check, once per scan.
    """
    start = time.monotonic()
    tallies = {name: CheckerTally() for name in VERIFY_CHECKS}
    q_hist: dict[int, int] = {}
    alphas, witnesses = set(), []
    with closing(_scan(plan, VERIFY_CHECKS)) as parts:
        for profiles, part_witnesses in parts:
            alphas.update(profiles)
            witnesses += part_witnesses
            for count, (profile, verdicts), _ in profiles.values():
                q_hist[profile.q] = q_hist.get(profile.q, 0) + count
                # VERIFY_CHECKS is a prefix of CHECK_ORDER, the order of the verdicts
                for t, verdict in zip(tallies.values(), verdicts):
                    if verdict:
                        t.failed += count
                    elif verdict is not None:
                        t.passed += count
    return VerifySummary(
        plan=plan,
        elapsed=time.monotonic() - start,
        checks=tallies,
        witnesses=witnesses,
        distinct_profiles=len(alphas),
        q_histogram=dict(sorted(q_hist.items())),
    )


def search_counterexample(plan: EnumerationPlan, predicate: str,
                          max_witnesses: int = 1) -> SearchReport:
    """Scan one corpus for failures of one named check.

    The scan realizes one witness per failing profile, at most
    ``max_witnesses`` of them, and random mode stops after the task of samples
    that reaches that count (the scanned count stays deterministic: whole
    tasks only).  Every witness re-verifies through a fresh full evaluation
    before being reported.
    """
    if predicate not in CHECK_ORDER:
        raise ValueError(f"unknown predicate {predicate!r}")
    start = time.monotonic()
    scanned, witnesses = 0, []
    with closing(_scan(plan, (predicate,), max_witnesses)) as parts:
        for profiles, part_witnesses in parts:
            scanned += sum(profile[0] for profile in profiles.values())
            witnesses += part_witnesses
    return SearchReport(predicate, (plan,), scanned, witnesses, time.monotonic() - start)


def search_n_range(predicate: str, n_values, mode: str, sample_count: int,
                   seed: int | None, workers: int,
                   max_witnesses: int) -> tuple[SearchReport, list[SearchReport]]:
    """Search each n in turn: the combined report and the per-n reports.

    Random mode splits ``sample_count`` evenly over the n values (the first
    ones take the remainder; an n whose share is 0 is skipped).  The search
    stops at the first n that brings the witness count to ``max_witnesses``.
    The combined report holds every requested n's plan before the split.
    """
    if not n_values:
        raise ValueError("search_n_range needs at least one n")
    # every n is checked, as the request gives it, before the first scan
    requested = tuple(EnumerationPlan(n, mode, sample_count, seed, workers) for n in n_values)
    plans = requested
    if mode == "random":
        share, extra = divmod(sample_count, len(plans))
        plans = [plan._replace(sample_count=share + (i < extra))
                 for i, plan in enumerate(plans) if share or i < extra]
    per_n: list[SearchReport] = []
    witnesses: list[dict] = []
    for plan in plans:
        report = search_counterexample(plan, predicate, max_witnesses - len(witnesses))
        per_n.append(report)
        witnesses.extend(report.witnesses)
        if len(witnesses) >= max_witnesses:
            break
    combined = SearchReport(predicate, requested, sum(r.instances_scanned for r in per_n),
                            witnesses, sum(r.elapsed for r in per_n))
    return combined, per_n
