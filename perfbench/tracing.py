"""In-process tracing of the hilbertdepth layers, from outside the package.

``Tracer.installed()`` rebinds each public function listed in ``LAYERS`` on
every ``hilbertdepth`` module that holds it (the defining module and every
module that imported it with ``from ... import``), so calls made through any
of those names are timed.  Each call becomes a span (name, start, end,
parent) kept in flat arrays until the run ends; every attribute is restored
when the block exits.

``combinatorics`` is not wrapped: the only calls into it on the benchmarked
paths are ``binom`` / ``binom_row``, hundreds of thousands of sub-microsecond
calls whose wrapper would cost more than the work it measures.  Their time
shows up in the self time of the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = {
    "corpus": ("alpha_census", "sample_rng", "random_gen_masks", "random_ideal",
               "find_ideal_with_alpha", "run_verification", "search_counterexample"),
    "ideals": ("alpha_counts_of_ideal", "alpha_vector"),
    "depth": ("hdepth", "beta_values", "hdepth_report"),
    "theorems": ("evaluate_profile", "run_checks", "witness_from_ideal"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# a tail percentile is reported only when at least this many calls lie beyond it
TAIL_CALLS = 10


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "hilbertdepth" or name.startswith("hilbertdepth.")]


def module_bindings() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded hilbertdepth module."""
    return {(m.__name__, attr): id(value)
            for m in package_modules() for attr, value in vars(m).items()}


class Tracer:
    """Spans of one traced execution, plus the counts the derived metrics need."""

    def __init__(self):
        self.names = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: list[int] = []
        self.profiles: set = set()   # distinct evaluate_profile arguments
        self.downsets = 0            # ideals counted by alpha_census

    def _record_profile(self, args, kwargs, result):
        self.profiles.add((args, tuple(sorted(kwargs.items()))))

    def _record_census(self, args, kwargs, result):
        self.downsets += sum(result.values())

    def _wrap(self, span_id: int, fn, record=None):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if record is not None:
                record(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        import hilbertdepth.cli  # noqa: F401  (loads every wrapped module)

        records = {"corpus.alpha_census": self._record_census,
                   "theorems.evaluate_profile": self._record_profile}
        wrappers: dict[int, tuple] = {}
        for span_id, name in enumerate(SPAN_NAMES):
            mod, fn_name = name.rsplit(".", 1)
            fn = getattr(sys.modules[f"hilbertdepth.{mod}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(span_id, fn, records.get(name)))
        patched = []
        try:
            for mod in package_modules():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy and self time (ns), and call durations (ns)."""
        child = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        stats = {name: {"calls": 0, "busy": 0, "self": 0, "durations": []}
                 for name in SPAN_NAMES}
        for i, span_id in enumerate(self.names):
            s = stats[SPAN_NAMES[span_id]]
            dur = self.ends[i] - self.starts[i]
            s["calls"] += 1
            s["busy"] += dur
            s["self"] += dur - child[i]
            s["durations"].append(dur)
        return stats

    def write_spans(self, fh, execution: int):
        base = self.starts[0] if self.starts else 0
        fh.writelines(f"{execution},{i},{SPAN_NAMES[n]},{s - base},{e - base},{p}\n"
                      for i, (n, s, e, p) in enumerate(
                          zip(self.names, self.starts, self.ends, self.parents)))


def median_rank(calls: int) -> int:
    """0-based nearest-rank index of the median."""
    return (calls + 1) // 2 - 1


def tail_rank(calls: int) -> int:
    """0-based nearest-rank index of p99, or of the highest percentile with
    TAIL_CALLS calls beyond it when p99 has fewer; never below the median."""
    return max(median_rank(calls),
               min((99 * calls + 99) // 100 - 1, calls - 1 - TAIL_CALLS))


def write_span_file(path: Path, tracers: list[Tracer]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("execution,span,name,start_ns,end_ns,parent\n")
        for execution, tracer in enumerate(tracers):
            tracer.write_spans(fh, execution)
