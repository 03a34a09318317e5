"""Workload table, child-process launches and the output gate of the benchmark.

Every workload is one ``hdepth`` command line run with ``--workers 1``.  The
output gate has two parts:

* a byte digest and exit status recorded on the seed commit (``golden.json``,
  written by ``record_golden.py``), checked whenever the command line was
  recorded;
* structural checks on the output itself (sample counts, tallies that add
  up, exit status that matches the reported failures), checked on every run,
  so that a seed that was never recorded is still checked.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# The body of the ``hdepth`` console script that pyproject.toml installs.
ENTRY = "import sys; from hilbertdepth.cli import main; sys.exit(main())"

# A fixed stdlib-only task, launched as a child next to every workload
# command: its time tracks the machine's current speed (which swings by up to
# 2x within seconds on a shared VM), so the ratio of a command's time to it
# is steady where the raw time is not.  It draws random subsets into bit
# masks, shifts big integers and counts in a dict, like the sampling layer.
# Changing it changes every normalized metric: never edit it.
CALIBRATION = """\
import random
r = random.Random(1)
d = {}
acc = 0
for i in range(40000):
    m = 0
    for v in r.sample(range(12), r.randint(1, 6)):
        m |= 1 << v
    acc += ((m << (i & 511)) | i).bit_count()
    d[m] = d.get(m, 0) + 1
s = ",".join(str(k) for k in sorted(d))
"""
# Seconds per calibration time: turns a ratio to the calibration task into
# seconds at a fixed reference speed (the task takes 0.2-0.4 s on a 2-vCPU
# Xeon VM under Python 3.11).  A constant; never edit it either.
CALIBRATION_REF_S = 0.25

# Exhaustive corpora: proper nonzero ideals and distinct alpha profiles per n.
CENSUS_IDEALS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579, 6: 7_828_352}
CENSUS_PROFILES = {1: 1, 2: 3, 3: 8, 4: 24, 5: 94, 6: 551}
VERIFY_CHECK_NAMES = ("main", "principal-equivalence", "bound-equivalence",
                      "q6-bounds", "lemma79")


class GateError(Exception):
    """The program's output or exit status is not what the gate expects."""


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]      # may contain "{seed}"
    default_seed: int | None   # None: the command takes no seed
    scanned: tuple[int, ...]   # instances the command scans, per n

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def samples(self) -> int:
        return sum(self.scanned)

    @property
    def n_values(self) -> range:
        if "-n" in self.args:
            n = int(self.args[self.args.index("-n") + 1])
            return range(n, n + 1)
        lo, hi = self.args[self.args.index("--n-range") + 1].split("..")
        return range(int(lo), int(hi) + 1)

    def argv(self, seed: int | None) -> list[str]:
        seed = self.default_seed if seed is None else seed
        return [a.format(seed=seed) for a in self.args]

    def check(self, rc: int, out: bytes) -> int:
        """Raise GateError unless the output is well formed; return instances scanned."""
        try:
            if self.args[self.args.index("--format") + 1] == "csv":
                return _check_csv(self, rc, out)
            payload = json.loads(out)
        except (ValueError, UnicodeDecodeError) as exc:
            raise GateError(f"unparsable output: {exc}") from None
        try:
            if self.subcommand == "search":
                return _check_search(self, rc, payload)
            return _check_verify(self, rc, payload)
        except (KeyError, TypeError, IndexError) as exc:
            raise GateError(f"output lacks an expected field: {exc!r}") from None


WORKLOADS = {w.name: w for w in (
    Workload("census-n1-5",
             ("verify", "--exhaustive", "--n-range", "1..5", "--format", "json",
              "--deterministic", "--workers", "1"),
             None, tuple(CENSUS_IDEALS[n] for n in range(1, 6))),
    Workload("census-n6",
             ("verify", "--exhaustive", "-n", "6", "--format", "json",
              "--deterministic", "--workers", "1"),
             None, (CENSUS_IDEALS[6],)),
    Workload("sample-n7-9",
             ("verify", "--random", "--n-range", "7..9", "--samples", "4000",
              "--seed", "{seed}", "--format", "json", "--deterministic", "--workers", "1"),
             42, (4000,) * 3),
    Workload("search-beta47",
             ("search", "--predicate", "beta47-bound", "--n-range", "10..14",
              "--samples", "3000", "--seed", "{seed}", "--format", "json",
              "--deterministic", "--workers", "1"),
             7, (600,) * 5),
    Workload("report-csv-n9",
             ("verify", "--random", "-n", "9", "--samples", "1000",
              "--seed", "{seed}", "--format", "csv", "--workers", "1"),
             42, (1000,)),
)}


# --- structural checks ---------------------------------------------------------

def _require(cond: bool, message: str):
    if not cond:
        raise GateError(message)


def _check_verify(w: Workload, rc: int, payload: dict) -> int:
    _require(payload["command"] == "verify", "not a verify payload")
    summaries = payload["results"]["summaries"]
    exhaustive = "--exhaustive" in w.args
    _require([s["n"] for s in summaries] == list(w.n_values), "summary n values")
    failures = 0
    for s, want in zip(summaries, w.scanned):
        n = s["n"]
        _require(s["scanned"] == want, f"n={n}: scanned {s['scanned']} != {want}")
        _require(sum(s["q_histogram"].values()) == want, f"n={n}: q histogram total")
        _require(sorted(s["checks"]) == sorted(VERIFY_CHECK_NAMES), f"n={n}: check names")
        for name, t in s["checks"].items():
            _require(t["applicable"] == t["passed"] + t["failed"] <= want,
                     f"n={n} {name}: tally {t}")
            failures += t["failed"]
        for wit in s["witnesses"]:
            _require(s["checks"][wit["check"]]["failed"] > 0,
                     f"n={n}: witness for passing check {wit['check']}")
        if exhaustive:
            _require(s["distinct_profiles"] == CENSUS_PROFILES[n],
                     f"n={n}: {s['distinct_profiles']} profiles != {CENSUS_PROFILES[n]}")
    _require(payload["results"]["total_failures"] == failures, "total_failures")
    _require(rc == (1 if failures else 0), f"exit {rc} with {failures} failures")
    return sum(s["scanned"] for s in summaries)


def _check_search(w: Workload, rc: int, payload: dict) -> int:
    _require(payload["command"] == "search", "not a search payload")
    res = payload["results"]
    scanned = res["instances_scanned"]
    _require(rc == 0, f"exit {rc}")
    _require(scanned == sum(r["instances_scanned"] for r in res["per_n"]), "per-n scanned total")
    if res["status"] == "inconclusive":
        _require(scanned == w.samples and not res["witnesses"],
                 f"inconclusive after {scanned} of {w.samples}")
    else:
        _require(res["status"] == "witnesses-found" and res["witnesses"] and scanned <= w.samples,
                 f"status {res['status']} with {len(res['witnesses'])} witnesses")
    return scanned


def _check_csv(w: Workload, rc: int, out: bytes) -> int:
    rows = list(csv.reader(io.StringIO(out.decode())))
    (n,) = w.n_values
    header = (["n", "ideal"] + [f"alpha_{j}" for j in range(n + 1)]
              + ["hdepth_quotient", "hdepth_ideal", "principal", "in_m2"]
              + list(VERIFY_CHECK_NAMES))
    _require(bool(rows) and rows[0] == header, "CSV header")
    body = rows[1:]
    _require(len(body) == w.samples, f"{len(body)} CSV rows != {w.samples}")
    failed = False
    for row in body:
        _require(len(row) == len(header) and row[0] == str(n) and row[2] == "1",
                 f"malformed CSV row {row[:3]}")
        cells = row[-len(VERIFY_CHECK_NAMES):]
        _require(all(c in ("", "0", "1") for c in cells), f"check cells {cells}")
        failed = failed or "0" in cells
    _require(rc == (1 if failed else 0), f"exit {rc} with failing rows: {failed}")
    return len(body)


# --- golden digests ----------------------------------------------------------------

def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["outputs"]


def gate(w: Workload, argv: list[str], rc: int, out: bytes, golden: dict) -> int:
    """Full output gate for one run; returns instances scanned."""
    scanned = w.check(rc, out)
    want = golden.get(command_key(argv))
    if want is not None:
        digest = hashlib.sha256(out).hexdigest()
        _require(rc == want["exit"], f"exit {rc}, recorded {want['exit']}")
        _require(digest == want["sha256"],
                 f"output digest {digest[:16]} differs from the recorded one")
    return scanned


# --- child processes -------------------------------------------------------------

@dataclass
class Launch:
    rc: int
    out: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def source_present() -> bool:
    return (SRC / "hilbertdepth" / "cli.py").is_file()


def launch(argv: list[str], code: str = ENTRY) -> Launch:
    """Run ``hdepth <argv>`` from the checkout's sources as one child process
    (or, given ``code``, ``python -c code``).

    Wall time runs from just before the fork to the reaping ``wait4``, whose
    rusage gives the child's own CPU time and peak RSS.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    with open(OUT_DIR / "child-stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024)
