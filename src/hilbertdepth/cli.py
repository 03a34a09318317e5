"""Command-line front end.

Subcommands:

* ``compute`` -- alpha vectors, beta triangles, and both Hilbert depths for
  one ideal given as generator text;
* ``verify``  -- run the checker suite over an exhaustive or seeded random
  corpus (or reproduce the published bound tables with ``--tables``);
* ``search``  -- scan a corpus for failures of one named predicate.

Exit codes: 0 ok/inconclusive, 1 verification failure, 2 usage/parse error,
3 domain error, 4 capacity error.

JSON output is ``{schema_version, command, config, results}``; alpha and beta
arrays are arrays of decimal strings so 64-bit consumers cannot overflow.
``--deterministic`` suppresses timestamps, host info, and elapsed times, making
equal configurations byte-identical.  CSV is one flat row per ideal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import platform
import sys
import time
from dataclasses import asdict

from .corpus import (EnumerationPlan, SearchReport, VerifySummary,
                     enumerate_ideals, random_ideal, run_verification,
                     sample_rng, search_n_range)
from .depth import HdepthReport, hdepth_report
from .errors import CapacityError, DomainError, ParseError
from .ideals import parse_ideal
from .theorems import VERIFY_CHECKS, reproduce_bound_tables, run_checks

SCHEMA_VERSION = 1


# --- helpers ----------------------------------------------------------------

def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _parse_n_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a range like 3..6, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in range {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(a, b + 1))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _n_values(args) -> list[int]:
    if args.n_range is not None:
        return args.n_range
    if args.n is not None:
        return [args.n]
    raise ValueError("one of -n or --n-range is required")


def _corpus_mode(args, default: str) -> str:
    """"random" or "exhaustive" from the flags; a random corpus needs a seed
    and a sample count."""
    mode = "random" if args.random else "exhaustive" if args.exhaustive else default
    if mode == "random" and (args.seed is None or not args.samples):
        raise ValueError("a random corpus needs --seed and --samples")
    return mode


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_payload(command: str, config: dict, results: dict, deterministic: bool) -> str:
    payload: dict = {"schema_version": SCHEMA_VERSION, "command": command}
    if not deterministic:
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        payload["host"] = platform.node()
    payload["config"] = config
    payload["results"] = results
    return json.dumps(payload, indent=2) + "\n"


def _witness_json(w: dict) -> dict:
    out = dict(w)
    for key in ("alpha_quotient", "alpha_ideal", "beta_quotient_at_q"):
        if key in out:
            out[key] = _strs(out[key])
    return out


# --- compute -----------------------------------------------------------------

def _report_json(report: HdepthReport) -> dict:
    return {
        "n": report.n,
        "ideal": str(report.ideal),
        "generators": [str(g) for g in report.ideal.gens],
        "alpha_quotient": _strs(report.alpha_quotient),
        "alpha_ideal": _strs(report.alpha_ideal),
        "hdepth_quotient": report.hdepth_quotient,
        "hdepth_ideal": report.hdepth_ideal,
        "principal": report.principal,
        "in_m2": report.in_m2,
        "beta_triangle_quotient": [_strs(t.values) for t in report.beta_triangle_quotient],
        "beta_triangle_ideal": [_strs(t.values) for t in report.beta_triangle_ideal],
    }


def _report_text(report: HdepthReport) -> str:
    lines = [
        f"ideal: {report.ideal}  (n = {report.n})",
        f"alpha(S/I) = {list(report.alpha_quotient)}",
        f"alpha(I)   = {list(report.alpha_ideal)}",
        f"hdepth(S/I) = {report.hdepth_quotient}",
        f"hdepth(I)   = {report.hdepth_ideal}",
        f"principal: {'yes' if report.principal else 'no'}"
        f"   contained in m^2: {'yes' if report.in_m2 else 'no'}",
        "beta tables for S/I:",
    ]
    lines += [f"  d={t.q}: {' '.join(map(str, t.values))}"
              for t in report.beta_triangle_quotient]
    lines.append("beta tables for I:")
    lines += [f"  d={t.q}: {' '.join(map(str, t.values))}"
              for t in report.beta_triangle_ideal]
    return "\n".join(lines) + "\n"


def _csv_header(nmax: int) -> list[str]:
    return (["n", "ideal"] + [f"alpha_{j}" for j in range(nmax + 1)]
            + ["hdepth_quotient", "hdepth_ideal", "principal", "in_m2"])


def _csv_row(report: HdepthReport, nmax: int) -> list:
    """One ideal's row under _csv_header(nmax); alpha cells past n are blank."""
    return ([report.n, str(report.ideal)] + list(report.alpha_quotient)
            + [""] * (nmax - report.n)
            + [report.hdepth_quotient, report.hdepth_ideal,
               int(report.principal), int(report.in_m2)])


def _report_csv(report: HdepthReport) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([_csv_header(report.n), _csv_row(report, report.n)])
    return buf.getvalue()


def cmd_compute(args) -> int:
    text = args.ideal
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
    if text is None:
        raise ValueError("compute needs generator text or --file")
    report = hdepth_report(parse_ideal(text, args.n))
    if args.format == "json":
        config = {"n": args.n, "ideal": text.strip()}
        _emit(_json_payload("compute", config, _report_json(report), args.deterministic),
              args.out)
    elif args.format == "csv":
        _emit(_report_csv(report), args.out)
    else:
        _emit(_report_text(report), args.out)
    return 0


# --- verify -------------------------------------------------------------------

def _summary_json(summary: VerifySummary, deterministic: bool) -> dict:
    out = {
        "n": summary.n,
        "mode": summary.mode,
        "scanned": summary.scanned,
        "sample_count": summary.sample_count,
        "seed": summary.seed,
        "workers": summary.workers,
        "distinct_profiles": summary.distinct_profiles,
        "checks": {name: asdict(t) for name, t in sorted(summary.checks.items())},
        "q_histogram": {str(q): c for q, c in summary.q_histogram.items()},
        "lem_gate_excluded": summary.lem_gate_excluded,
        "witnesses": [_witness_json(w) for w in summary.witnesses],
    }
    if not deterministic:
        out["elapsed_seconds"] = round(summary.elapsed, 3)
    return out


def _summary_text(summary: VerifySummary) -> str:
    lines = [
        f"verification (n={summary.n}, {summary.mode}"
        + (f", samples={summary.sample_count}, seed={summary.seed}"
           if summary.mode == "random" else "")
        + f"): scanned {summary.scanned} ideals, "
          f"{summary.distinct_profiles} distinct profiles, "
          f"{summary.elapsed:.2f}s, workers={summary.workers}",
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


def _verify_csv(n_values, mode, samples, seed, out_path):
    """Flat per-ideal rows; materializes every ideal, so exhaustive mode is
    intended for small n here."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    nmax = max(n_values)
    writer.writerow(_csv_header(nmax) + list(VERIFY_CHECKS))
    failures = 0
    for n in n_values:
        ideals = (enumerate_ideals(n) if mode == "exhaustive" else
                  (random_ideal(n, sample_rng(seed, n, i)) for i in range(samples)))
        for ideal in ideals:
            report = hdepth_report(ideal)
            outcomes = run_checks(report)
            failures += sum(1 for o in outcomes if o.applicable and not o.passed)
            writer.writerow(_csv_row(report, nmax)
                            + ["" if not o.applicable else int(o.passed) for o in outcomes])
    _emit(buf.getvalue(), out_path)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    if args.tables:
        diffs = reproduce_bound_tables()
        if args.format == "json":
            results = {"table_diffs": diffs, "tables_ok": not diffs}
            _emit(_json_payload("verify", {"tables": True}, results, args.deterministic),
                  args.out)
        else:
            text = ("bound tables: all cells match\n" if not diffs else
                    "".join(f"DIFF {d['table']} {d['row']} x={d['x']}: "
                            f"expected {d['expected']}, computed {d['computed']}\n"
                            for d in diffs))
            _emit(text, args.out)
        return 0 if not diffs else 1

    n_values = _n_values(args)
    mode = _corpus_mode(args, "exhaustive")

    if args.format == "csv":
        return _verify_csv(n_values, mode, args.samples, args.seed, args.out)

    summaries = [run_verification(EnumerationPlan(
        n=n, mode=mode, sample_count=args.samples or 0, seed=args.seed, workers=args.workers))
        for n in n_values]
    total_failures = sum(s.total_failures for s in summaries)

    if args.format == "json":
        config = {"n_values": n_values, "mode": mode, "samples": args.samples,
                  "seed": args.seed, "workers": args.workers}
        results = {"summaries": [_summary_json(s, args.deterministic) for s in summaries],
                   "total_failures": total_failures}
        _emit(_json_payload("verify", config, results, args.deterministic), args.out)
    else:
        text = "".join(_summary_text(s) for s in summaries)
        text += f"RESULT: {'PASS' if total_failures == 0 else 'FAIL'} ({total_failures} failures)\n"
        _emit(text, args.out)
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
    n_values = _n_values(args)
    mode = _corpus_mode(args, "random")
    combined, per_n = search_n_range(args.predicate, n_values, mode, args.samples or 0,
                                     args.seed, args.workers, args.max_witnesses)

    if args.format == "json":
        config = {"predicate": args.predicate, "n_values": n_values, "mode": mode,
                  "samples": args.samples, "seed": args.seed,
                  "workers": args.workers, "max_witnesses": args.max_witnesses}
        results = _search_json(combined, args.deterministic)
        results["per_n"] = [_search_json(r, args.deterministic) for r in per_n]
        _emit(_json_payload("search", config, results, args.deterministic), args.out)
    else:
        lines = [f"search predicate={combined.predicate} mode={mode} "
                 f"n={list(combined.n_values)} scanned={combined.instances_scanned} "
                 f"status={combined.status}"]
        for w in combined.witnesses:
            lines.append(f"  WITNESS n={w['n']} ideal=({w['ideal']}) {w['violated']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# --- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdepth",
        description="Hilbert depth of squarefree monomial ideals: reports, "
                    "verification suites, and counterexample search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_corpus=True):
        p.add_argument("-n", type=int, default=None, help="number of variables")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timestamps/host/elapsed for golden files")
        if with_corpus:
            p.add_argument("--n-range", type=_parse_n_range, default=None,
                           metavar="A..B", help="inclusive range of n values")
            corpus = p.add_mutually_exclusive_group()
            corpus.add_argument("--exhaustive", action="store_true")
            corpus.add_argument("--random", action="store_true")
            p.add_argument("--samples", type=_positive_int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--workers", type=_positive_int, default=1)

    p_compute = sub.add_parser("compute", help="report for one ideal")
    common(p_compute, with_corpus=False)
    p_compute.add_argument("ideal", nargs="?", default=None,
                           help="generator text, e.g. 'x1*x2, x2*x3'")
    p_compute.add_argument("--file", default=None, help="read generator text from a file")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the checker suite over a corpus")
    common(p_verify)
    p_verify.add_argument("--tables", action="store_true",
                          help="reproduce the published bound tables instead")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="scan a corpus for one predicate's failures")
    common(p_search)
    p_search.add_argument("--predicate", required=True,
                          help="main | principal-equivalence | bound-equivalence | "
                               "q6-bounds | lemma79 | beta47-bound")
    p_search.add_argument("--max-witnesses", type=_positive_int, default=1)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
