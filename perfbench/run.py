"""Benchmark of the ``hdepth`` command line: run workloads, print metrics.

    python3 perfbench/run.py --workload sample-n7-9 --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --trace 1        # BENCHMARK.json's workloads, default seeds

``--trace 0`` launches ``hdepth`` (the console script's entry point, from the
checkout's ``src/``) as one child process at a time with ``--workers 1``, in
a closed loop for ``--seconds``, and reports end-to-end metrics measured from
outside the child.  ``--trace 1`` runs the same command in-process,
alternately untraced and traced, and reports per-layer metrics.  Every
output passes the gate in ``workloads.py``.  The last line printed is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With no
``--workload`` the run covers the workloads BENCHMARK.json lists, in turn,
and its metric names are prefixed by the workload name; ``census-n6`` runs
only when named.  It
carries the metrics BENCHMARK.json lists (``end_to_end`` untraced,
``per_layer`` traced); each run's record, with every metric computed and the
machine stamp, is appended to ``.bench_build/perfbench/records.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

from workloads import (CALIBRATION, CALIBRATION_REF_S, OUT_DIR, ROOT, SRC, WORKLOADS,
                       GateError, Workload, gate, launch, load_golden, source_present)

RUN_SECONDS = 25
MIN_SETUP_LAUNCHES = 9   # set-up time is the median of at least this many `--help` launches


# --- stamps -----------------------------------------------------------------------

def source_stamp() -> dict:
    """Which program was measured: git commit (when the checkout has one) and
    a digest of every file under src/."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_stamp() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": _cpu_model(), "loadavg_start": os.getloadavg(), **source_stamp()}


# --- runs --------------------------------------------------------------------------

class Run:
    """Outcome of one benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int | None):
        self.w = w
        self.argv = w.argv(seed)
        self.golden = load_golden()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def check(self, rc: int, out: bytes, same_as: bytes | None = None) -> int | None:
        """Gate one execution of the workload; returns instances scanned, or
        None if the execution failed."""
        self.attempted += 1
        try:
            scanned = gate(self.w, self.argv, rc, out, self.golden)
            if same_as is not None and out != same_as:
                raise GateError("output differs from the first execution's")
            return scanned
        except GateError as exc:
            self.failed += 1
            self.problems.append(f"{self.w.name}: {exc}")
            return None

    def result(self, names=None) -> dict:
        """The result object, with every metric or only those named."""
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
                            if names is None or k in names}}


def _spread(values: list[float]) -> str:
    return f"median {median(values):.5g} of {len(values)} [{min(values):.5g} .. {max(values):.5g}]"


def run_untraced(w: Workload, seed: int | None, seconds: float) -> Run:
    run = Run(w, seed)
    help_argv = [w.subcommand, "--help"]
    launch(help_argv)  # warm-up: a fresh checkout compiles its bytecode here

    # Each iteration launches the calibration task, `--help` and the workload
    # command back to back; the two are also reported relative to that
    # calibration launch's time, which samples the same stretch of machine
    # time.  Set-up time is `--help` time at the calibration's reference speed.
    setups, works = [], []   # (calibration, launch[, scanned])
    first = None
    start = time.perf_counter()
    while not works or time.perf_counter() - start < seconds:
        cal = launch([], CALIBRATION)
        setups.append((cal, launch(help_argv)))
        r = launch(run.argv)
        scanned = run.check(r.rc, r.out, first)
        first = r.out if first is None else first
        works.append((cal, r, w.samples if scanned is None else scanned))
    while len(setups) < MIN_SETUP_LAUNCHES:
        setups.append((launch([], CALIBRATION), launch(help_argv)))
    for _, h in setups:
        if h.rc != 0 or not h.out.startswith(b"usage: hdepth"):
            run.problems.append(f"{w.name}: `hdepth {' '.join(help_argv)}` exited {h.rc}")

    series = {  # name: (unit, one value per launch)
        "wall_s": ("s", [r.wall_s for _, r, _ in works]),
        "cpu_s": ("s", [r.cpu_s for _, r, _ in works]),
        "scanned_per_s": ("1/s", [n / r.wall_s for _, r, n in works]),
        "help_s": ("s", [h.wall_s for _, h in setups]),
        "calibration_s": ("s", [c.wall_s for c, _ in setups]),
        "wall_cal": ("cal", [r.wall_s / c.wall_s for c, r, _ in works]),
        "cpu_cal": ("cal", [r.cpu_s / c.cpu_s for c, r, _ in works]),
        "scanned_per_cal": ("1/cal", [n * c.wall_s / r.wall_s for c, r, n in works]),
        "setup_s": ("s", [CALIBRATION_REF_S * h.wall_s / c.wall_s for c, h in setups]),
    }
    rss = [r.peak_rss_mb for _, r, _ in works]
    run.metrics = {name: (median(values), unit) for name, (unit, values) in series.items()}
    run.metrics["peak_rss_mb"] = (max(rss), "MB")
    run.lines = [f"  {name:16s} {unit:6s} {_spread(values)}"
                 for name, (unit, values) in series.items()]
    run.lines += [
        f"  {'peak_rss_mb':16s} {'MB':6s} max {max(rss):.1f} of {len(rss)} [median {median(rss):.1f}]",
        f"  {'failed_frac':16s} {'frac':6s} {run.failed / run.attempted:.3f}"
        f" ({run.failed} of {run.attempted} commands)",
    ]
    return run


def _in_process(argv: list[str]) -> tuple[int, bytes, float]:
    cli = sys.modules["hilbertdepth.cli"]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)   # looked up at call time: the wrapper while tracing
    wall = time.perf_counter() - start
    return rc, buf.getvalue().encode(), wall


def run_traced(w: Workload, seed: int | None, seconds: float) -> Run:
    from tracing import (LAYERS, SPAN_NAMES, Tracer, median_rank, module_bindings,
                         tail_rank, write_span_file)

    run = Run(w, seed)
    untraced, traced, tracers = [], [], []
    first = None
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        rc, out, wall = _in_process(run.argv)
        run.check(rc, out, first)
        first = out if first is None else first
        untraced.append(wall)

        tracer = Tracer()
        before = module_bindings()
        with tracer.installed():
            rc, out, wall = _in_process(run.argv)
        if module_bindings() != before:
            run.problems.append(f"{w.name}: tracing left a module attribute rebound")
        run.check(rc, out, first)
        traced.append(wall)
        tracers.append(tracer)

    write_span_file(OUT_DIR / f"spans-{w.name}.csv", tracers)
    stats = [t.layer_stats() for t in tracers]
    repeat = {(tuple(s[name]["calls"] for name in SPAN_NAMES), t.downsets, len(t.profiles))
              for s, t in zip(stats, tracers)}
    if len(repeat) > 1:
        run.problems.append(f"{w.name}: call counts differ between traced executions")

    metrics: dict[str, tuple[float, str]] = {}
    run.lines = [f"  {'layer':34s} {'calls':>8s} {'busy_s':>9s} {'self_s':>9s}"
                 f" {'p50_us':>10s} {'tail_us':>10s} tail"]
    for name in SPAN_NAMES:
        calls = stats[0][name]["calls"]
        busy = median(s[name]["busy"] for s in stats) / 1e9
        own = median(s[name]["self"] for s in stats) / 1e9
        durations = sorted(d for s in stats for d in s[name]["durations"])
        p50 = durations[median_rank(len(durations))] / 1e3 if durations else 0.0
        tail = durations[tail_rank(len(durations))] / 1e3 if durations else 0.0
        metrics.update({f"{name}.calls": (calls, "count"), f"{name}.busy_s": (busy, "s"),
                        f"{name}.self_s": (own, "s"), f"{name}.p50_us": (p50, "us"),
                        f"{name}.p99_us": (tail, "us")})
        tail_pct = (f"p{100 * (tail_rank(len(durations)) + 1) / len(durations):.3g}"
                    if durations else "-")
        run.lines.append(f"  {name:34s} {calls:8d} {busy:9.3f} {own:9.3f}"
                         f" {p50:10.1f} {tail:10.1f} {tail_pct}")

    modules = []
    for mod, fns in LAYERS.items():
        own = median(sum(s[f"{mod}.{fn}"]["self"] for fn in fns) for s in stats) / 1e9
        metrics[f"{mod}.self_s"] = (own, "s")
        modules.append(f"{mod} {own:.3f}")

    downsets, distinct = tracers[0].downsets, len(tracers[0].profiles)
    census_busy = metrics["corpus.alpha_census.busy_s"][0]
    profile_calls = metrics["theorems.evaluate_profile.calls"][0]
    overhead = median(t / u for t, u in zip(traced, untraced)) - 1
    metrics.update({
        "corpus.alpha_census.downsets": (downsets, "count"),
        "corpus.alpha_census.downsets_per_s": (
            downsets / census_busy if census_busy else 0.0, "1/s"),
        "theorems.evaluate_profile.distinct": (distinct, "count"),
        "theorems.evaluate_profile.useful_ratio": (
            distinct / profile_calls if profile_calls else 0.0, "ratio"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    run.metrics = metrics
    run.lines.append(f"  module self_s: {', '.join(modules)}")
    notes = {"corpus.alpha_census.downsets_per_s": f"{downsets} downsets",
             "theorems.evaluate_profile.useful_ratio": f"{distinct} distinct of {profile_calls} calls",
             "trace.overhead_frac": f"untraced {_spread(untraced)} s; traced {_spread(traced)} s"}
    run.lines += [f"  {key:38s} {metrics[key][0]:.6g} {metrics[key][1]} ({note})"
                  for key, note in notes.items()]
    return run


# --- entry point ------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: those BENCHMARK.json lists, in turn)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance suite's, 42 or 7)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measure for this long; at least one execution")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not source_present():
        print(f"error: {SRC / 'hilbertdepth'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(SRC))
        import hilbertdepth.cli  # noqa: F401
        if not hilbertdepth.cli.__file__.startswith(str(SRC)):
            print(f"error: imported {hilbertdepth.cli.__file__}, not the checkout's",
                  file=sys.stderr)
            return 2

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reported = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    stamp = machine_stamp()
    print(f"record: {json.dumps(stamp)}")
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    runs = []
    for name in names:
        w = WORKLOADS[name]
        run = (run_traced if args.trace else run_untraced)(w, args.seed, args.seconds)
        runs.append(run)
        print(f"workload {name}  argv: hdepth {' '.join(run.argv)}")
        print("\n".join(run.lines))
        for problem in run.problems:
            print(f"  FAILED {problem}")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(OUT_DIR / "records.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": name, "argv": run.argv, "trace": args.trace,
                                 "seconds": args.seconds, **stamp,
                                 "loadavg_end": os.getloadavg(), **run.result()}) + "\n")
    print(f"loadavg_end: {list(os.getloadavg())}")

    if len(runs) == 1:
        result = runs[0].result(reported)
    else:
        result = {"correct": not any(r.problems for r in runs),
                  "attempted": sum(r.attempted for r in runs),
                  "failed": sum(r.failed for r in runs),
                  "metrics": {f"{r.w.name}.{k}": v
                              for r in runs for k, v in r.result(reported)["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
