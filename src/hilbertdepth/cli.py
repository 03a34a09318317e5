"""Command-line front end.

Subcommands:

* ``compute`` -- alpha vectors, beta triangles, and both Hilbert depths for
  one ideal given as generator text;
* ``verify``  -- run the checker suite over an exhaustive or seeded random
  corpus (or reproduce the published bound tables with ``--tables``);
* ``search``  -- scan a corpus for failures of one named predicate.

``verify`` and ``search`` take exactly one of ``-n`` or ``--n-range``
(``verify`` may take ``--tables`` in their place); argparse checks this.

Exit codes: 0 ok/inconclusive, 1 verification failure, 2 usage/parse error
or I/O error (a missing ``--file``, an unwritable ``--out``, a closed stdout),
3 domain error, 4 capacity error.  An ``--out`` that is a directory or lies
in a missing one is refused before any work starts.

JSON output is ``{schema_version, command, config, results}``; alpha and beta
arrays are arrays of decimal strings so 64-bit consumers cannot overflow.
``--deterministic`` suppresses timestamps, host info, and elapsed times, making
equal configurations byte-identical.  CSV is one flat row per ideal.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
import time
from contextlib import nullcontext

from .corpus import (EnumerationPlan, SearchReport, VerifySummary,
                     enumerate_ideals, random_ideal, run_verification,
                     sample_rng, search_n_range)
from .depth import HdepthReport, hdepth_report
from .errors import CapacityError, DomainError, ParseError
from .ideals import monomial_str, parse_ideal
from .theorems import CHECK_ORDER, VERIFY_CHECKS, reproduce_bound_tables, run_checks

SCHEMA_VERSION = 1


# --- helpers ----------------------------------------------------------------

def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a range like 3..6, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in range {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(a, b + 1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _output(args, config: dict, results: dict, text: str):
    """Write a command's results to stdout or ``--out``: under ``--format json``
    the ``{schema_version, command, config, results}`` payload, stamped unless
    ``--deterministic``; otherwise ``text``, the form the format asked for."""
    if args.format == "json":
        payload: dict = {"schema_version": SCHEMA_VERSION, "command": args.command}
        if not args.deterministic:
            payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
            import platform  # only non-deterministic payloads name the host
            payload["host"] = platform.node()
        payload["config"] = config
        payload["results"] = results
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out_path(path: str):
    """Refuse an ``--out`` that is a directory or lies in a missing one before
    any work is done.  The file itself is opened only to write, so a usage
    error found later leaves an existing file as it was."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such directory", parent)


def _witness_json(w: dict) -> dict:
    out = dict(w)
    for key in ("alpha_quotient", "alpha_ideal", "beta_quotient_at_q"):
        if key in out:
            out[key] = _strs(out[key])
    return out


# --- compute -----------------------------------------------------------------

def _report_json(report: HdepthReport) -> dict:
    p = report.profile
    return {
        "n": p.n,
        "ideal": str(report.ideal),
        "generators": [monomial_str(g) for g in report.ideal.gens],
        "alpha_quotient": _strs(report.alpha_quotient),
        "alpha_ideal": _strs(report.alpha_ideal),
        "hdepth_quotient": p.q,
        "hdepth_ideal": p.h_ideal,
        "principal": p.principal,
        "in_m2": p.in_m2,
        "beta_triangle_quotient": [_strs(row) for row in report.beta_triangle_quotient],
        "beta_triangle_ideal": [_strs(row) for row in report.beta_triangle_ideal],
    }


def _report_text(report: HdepthReport) -> str:
    p = report.profile
    lines = [
        f"ideal: {report.ideal}  (n = {p.n})",
        f"alpha(S/I) = {list(report.alpha_quotient)}",
        f"alpha(I)   = {list(report.alpha_ideal)}",
        f"hdepth(S/I) = {p.q}",
        f"hdepth(I)   = {p.h_ideal}",
        f"principal: {'yes' if p.principal else 'no'}"
        f"   contained in m^2: {'yes' if p.in_m2 else 'no'}",
    ]
    for side, triangle in (("S/I", report.beta_triangle_quotient),
                           ("I", report.beta_triangle_ideal)):
        lines.append(f"beta tables for {side}:")
        lines += [f"  d={d}: {' '.join(map(str, row))}" for d, row in enumerate(triangle)]
    return "\n".join(lines) + "\n"


def _csv_header(nmax: int) -> list[str]:
    return (["n", "ideal"] + [f"alpha_{j}" for j in range(nmax + 1)]
            + ["hdepth_quotient", "hdepth_ideal", "principal", "in_m2"])


def _csv_row(report: HdepthReport, nmax: int) -> list:
    """One ideal's row under _csv_header(nmax); alpha cells past n are blank."""
    p = report.profile
    return ([p.n, str(report.ideal)] + list(report.alpha_quotient) + [""] * (nmax - p.n)
            + [p.q, p.h_ideal, int(p.principal), int(p.in_m2)])


def _report_csv(report: HdepthReport) -> str:
    buf = io.StringIO()
    n = report.profile.n
    csv.writer(buf).writerows([_csv_header(n), _csv_row(report, n)])
    return buf.getvalue()


def cmd_compute(args) -> int:
    text = args.ideal
    if args.file is not None:
        with open(args.file) as fh:
            text = fh.read()
    report = hdepth_report(parse_ideal(text, args.n))
    _output(args, {"n": args.n, "ideal": text.strip()}, _report_json(report),
            _report_csv(report) if args.format == "csv" else _report_text(report))
    return 0


# --- verify -------------------------------------------------------------------

def _summary_json(summary: VerifySummary, deterministic: bool) -> dict:
    out = {
        "n": summary.plan.n,
        "mode": summary.plan.mode,
        "scanned": summary.scanned,
        "sample_count": summary.plan.sample_count,
        "seed": summary.plan.seed,
        "workers": summary.plan.workers,
        "distinct_profiles": summary.distinct_profiles,
        "checks": {name: {"applicable": t.applicable, "passed": t.passed, "failed": t.failed}
                   for name, t in sorted(summary.checks.items())},
        "q_histogram": {str(q): c for q, c in summary.q_histogram.items()},
        "lem_gate_excluded": summary.lem_gate_excluded,
        "witnesses": [_witness_json(w) for w in summary.witnesses],
    }
    if not deterministic:
        out["elapsed_seconds"] = round(summary.elapsed, 3)
    return out


def _summary_text(summary: VerifySummary, deterministic: bool) -> str:
    plan = summary.plan
    lines = [
        f"verification (n={plan.n}, {plan.mode}"
        + (f", samples={plan.sample_count}, seed={plan.seed}" if plan.mode == "random" else "")
        + f"): scanned {summary.scanned} ideals, {summary.distinct_profiles} distinct profiles, "
        + ("" if deterministic else f"{summary.elapsed:.2f}s, ") + f"workers={plan.workers}",
        f"  {'check':28s} {'applicable':>12s} {'passed':>12s} {'failed':>8s}",
    ]
    for name, t in sorted(summary.checks.items()):
        lines.append(f"  {name:28s} {t.applicable:12d} {t.passed:12d} {t.failed:8d}")
    hist = " ".join(f"{q}:{c}" for q, c in summary.q_histogram.items())
    lines.append(f"  hdepth(S/I) histogram: {hist}")
    lines.append(f"  bound-equivalence gate excluded: {summary.lem_gate_excluded}")
    for w in summary.witnesses:
        lines.append(f"  WITNESS {w['check']}: n={w['n']} ideal=({w['ideal']}) {w['violated']}")
    return "\n".join(lines) + "\n"


def _verify_csv(plans, out_path):
    """The plans' corpora as flat per-ideal rows, in one process, each written
    as it is computed (an ``--out`` file is line buffered, so it grows row by
    row); every ideal is materialized, so keep exhaustive n small here."""
    with open(out_path, "w", buffering=1) if out_path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        nmax = max(plan.n for plan in plans)
        writer.writerow(_csv_header(nmax) + list(VERIFY_CHECKS))
        failures = 0
        for plan in plans:
            n = plan.n
            ideals = (enumerate_ideals(n) if plan.mode == "exhaustive" else
                      (random_ideal(n, sample_rng(plan.seed, n, i))
                       for i in range(plan.sample_count)))
            for ideal in ideals:
                report = hdepth_report(ideal)
                cells = ["" if v is None else int(not v)
                         for v in run_checks(report)[1][:len(VERIFY_CHECKS)]]
                failures += cells.count(0)
                writer.writerow(_csv_row(report, nmax) + cells)
    return 1 if failures else 0


def _request(args, default_mode: str):
    """A verify or search request's plans, one per n, each checked before any
    scan starts, and the corpus half of its JSON config."""
    n_values = args.n_range or [args.n]
    mode = args.mode or default_mode
    plans = [EnumerationPlan(n, mode, args.samples or 0, args.seed, args.workers)
             for n in n_values]
    return plans, {"n_values": list(n_values), "mode": mode, "samples": args.samples,
                   "seed": args.seed, "workers": args.workers}


def _tables_conflicts(args) -> list[str]:
    """The flags that ``verify --tables`` would ignore: it scans no corpus and
    writes text or JSON only.  argparse already refuses ``-n`` and
    ``--n-range`` beside it."""
    given = {"--format csv": args.format == "csv", f"--{args.mode}": args.mode is not None,
             "--samples": args.samples is not None, "--seed": args.seed is not None}
    return [flag for flag, present in given.items() if present]


def cmd_verify(args) -> int:
    if args.tables:
        conflicts = _tables_conflicts(args)
        if conflicts:
            raise ValueError("--tables scans no corpus and writes no CSV; "
                             f"drop {', '.join(conflicts)}")
        diffs = reproduce_bound_tables()
        _output(args, {"tables": True}, {"table_diffs": diffs, "tables_ok": not diffs},
                "bound tables: all cells match\n" if not diffs else
                "".join(f"DIFF {d['table']} {d['row']} x={d['x']}: "
                        f"expected {d['expected']}, computed {d['computed']}\n"
                        for d in diffs))
        return 0 if not diffs else 1

    plans, config = _request(args, "exhaustive")
    if args.format == "csv":
        if args.workers != 1:
            raise ValueError("--format csv runs in one process; --workers must be 1")
        return _verify_csv(plans, args.out)

    summaries = [run_verification(plan) for plan in plans]
    total_failures = sum(s.total_failures for s in summaries)
    results = {"summaries": [_summary_json(s, args.deterministic) for s in summaries],
               "total_failures": total_failures}
    text = "".join(_summary_text(s, args.deterministic) for s in summaries)
    text += f"RESULT: {'PASS' if total_failures == 0 else 'FAIL'} ({total_failures} failures)\n"
    _output(args, config, results, text)
    return 1 if total_failures else 0


# --- search ---------------------------------------------------------------------

def _search_json(report: SearchReport, deterministic: bool) -> dict:
    out = {
        "predicate": report.predicate,
        "n_values": list(report.n_values),
        "mode": report.mode,
        "status": report.status,
        "instances_scanned": report.instances_scanned,
        "seed": report.seed,
        "witnesses": [_witness_json(w) for w in report.witnesses],
    }
    if not deterministic:
        out["elapsed_seconds"] = round(report.elapsed, 3)
    return out


def cmd_search(args) -> int:
    plans, corpus_config = _request(args, "random")
    combined, per_n = search_n_range(plans, args.predicate, args.max_witnesses)
    config = {"predicate": args.predicate, **corpus_config, "max_witnesses": args.max_witnesses}
    results = _search_json(combined, args.deterministic)
    results["per_n"] = [_search_json(r, args.deterministic) for r in per_n]
    lines = [f"search predicate={combined.predicate} mode={combined.mode} "
             f"n={list(combined.n_values)} scanned={combined.instances_scanned} "
             f"status={combined.status}"]
    lines += [f"  WITNESS n={w['n']} ideal=({w['ideal']}) {w['violated']}"
              for w in combined.witnesses]
    _output(args, config, results, "\n".join(lines) + "\n")
    return 0


# --- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdepth",
        description="Hilbert depth of squarefree monomial ideals: reports, "
                    "verification suites, and counterexample search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_corpus=True, formats=("json", "csv", "text"), tables=False):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timestamps/host/elapsed for golden files")
        n_flags = p.add_mutually_exclusive_group(required=True) if with_corpus else p
        n_flags.add_argument("-n", type=int, default=None, required=not with_corpus,
                             help="number of variables")
        if with_corpus:
            n_flags.add_argument("--n-range", type=_parse_n_range, default=None,
                                 metavar="A..B", help="inclusive range of n values")
            if tables:  # usage brackets a group only if its flags are adjacent
                n_flags.add_argument("--tables", action="store_true",
                                     help="reproduce the published bound tables instead "
                                          "(no corpus flags, text or JSON only)")
            corpus = p.add_mutually_exclusive_group()
            corpus.add_argument("--exhaustive", dest="mode", action="store_const",
                                const="exhaustive")
            corpus.add_argument("--random", dest="mode", action="store_const", const="random")
            p.add_argument("--samples", type=_positive_int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--workers", type=_positive_int, default=1,
                           help="processes for a random corpus (exhaustive runs use one)")

    p_compute = sub.add_parser("compute", help="report for one ideal")
    common(p_compute, with_corpus=False)
    gens = p_compute.add_mutually_exclusive_group(required=True)
    gens.add_argument("ideal", nargs="?", default=None,
                      help="generator text, e.g. 'x1*x2, x2*x3'")
    gens.add_argument("--file", default=None, help="read generator text from a file")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the checker suite over a corpus")
    common(p_verify, tables=True)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="scan a corpus for one predicate's failures")
    common(p_search, formats=("json", "text"))
    p_search.add_argument("--predicate", required=True, choices=CHECK_ORDER,
                          help="the check whose failures to scan for")
    p_search.add_argument("--max-witnesses", type=_positive_int, default=1)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out_path(args.out)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
