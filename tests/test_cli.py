"""Command-line interface: formats, determinism, and exit codes."""

import csv
import io
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hilbertdepth import cli, corpus, depth
from hilbertdepth.cli import main
from hilbertdepth.corpus import PROPER_IDEAL_COUNTS, compressed_complex_ideal
from hilbertdepth.depth import beta_values, hdepth_report
from hilbertdepth.ideals import parse_ideal
from hilbertdepth.theorems import CHECK_ORDER, witness_from_ideal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "-n", "3", "x1*x2*x3")
    assert code == 0
    assert "hdepth(S/I) = 2" in out
    assert "hdepth(I)   = 3" in out
    assert "principal: yes" in out


def test_compute_m_example(capsys):
    code, out, _ = run_cli(capsys, "compute", "-n", "3", "x1, x2, x3")
    assert code == 0
    assert "hdepth(S/I) = 0" in out
    assert "hdepth(I)   = 2" in out


def test_compute_json_decimal_strings(capsys):
    code, out, _ = run_cli(capsys, "compute", "-n", "2", "x1*x2",
                           "--format", "json", "--deterministic")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "compute"
    assert "generated_at" not in payload
    res = payload["results"]
    assert res["alpha_quotient"] == ["1", "2", "0"]
    assert res["hdepth_quotient"] == 1 and res["hdepth_ideal"] == 2
    assert res["beta_triangle_quotient"][2] == ["1", "0", "-1"]


def test_compute_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "-n", "2", "x1*x2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["n", "ideal"]
    assert rows[1][0] == "2" and rows[1][1] == "x1*x2"


def test_compute_file_input(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("x1*x2, x2*x3\n")
    code, out, _ = run_cli(capsys, "compute", "-n", "3", "--file", str(path))
    assert code == 0
    assert "hdepth(S/I) = 1" in out


def test_compute_rejects_text_and_file_together(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("x1*x2, x2*x3\n")
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-n", "3", "x1*x2*x3", "--file", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--file" in captured.err
    assert captured.out == ""


def test_compute_needs_generator_text_or_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "ideal --file" in captured.err and "required" in captured.err
    assert captured.out == ""


def test_compute_needs_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "x1*x2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "-n" in captured.err
    assert captured.out == ""


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "compute", "-n", "3", "x1*x1")
    assert code == 2
    assert "position" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(capsys, "compute", "-n", "3", "0")
    assert code == 3
    code, _, err = run_cli(capsys, "compute", "-n", "3", "1")
    assert code == 3


def test_exit_code_capacity_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--exhaustive", "-n", "7")
    assert code == 4
    code, _, err = run_cli(capsys, "compute", "-n", "26", "x1*x2")
    assert code == 4


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under ``hdepth ... | head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv,closed_stdout", [
    (["compute", "-n", "3", "--file", "{missing}/gens.txt"], False),
    (["compute", "-n", "3", "x1*x2", "--out", "{missing}/out.txt"], False),
    (["verify", "--exhaustive", "-n", "3", "--format", "json", "--out", "{missing}/out.json"],
     False),
    (["verify", "--exhaustive", "-n", "3", "--format", "csv", "--out", "{missing}/out.csv"],
     False),
    (["search", "--predicate", "main", "--exhaustive", "-n", "3", "--out", "{missing}/out.txt"],
     False),
    (["verify", "--exhaustive", "-n", "3", "--format", "csv"], True),
], ids=["compute-file", "compute-out", "verify-json-out", "verify-csv-out", "search-out",
        "verify-csv-closed-stdout"])
def test_io_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv, closed_stdout):
    # exit 1 means a verification failure, so an I/O error must not end there
    # through an uncaught exception
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    if closed_stdout:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("out", ["missing/x.out", "existing"], ids=["missing-dir", "is-dir"])
@pytest.mark.parametrize("argv", [
    ["verify", "--exhaustive", "-n", "6", "--format", "json"],
    ["verify", "--exhaustive", "-n", "6"],
    ["search", "--predicate", "main", "--exhaustive", "-n", "6"],
], ids=["verify-json", "verify-text", "search"])
def test_bad_out_path_fails_before_the_scan(tmp_path, capsys, monkeypatch, argv, out):
    def refused(*args, **kwargs):
        raise AssertionError("scanned before --out was checked")

    monkeypatch.setattr(cli, "run_verification", refused)
    monkeypatch.setattr(cli, "search_n_range", refused)
    (tmp_path / "existing").mkdir()
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert ("no such directory" if out.startswith("missing") else "is a directory") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]


def test_verify_tables(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tables")
    assert code == 0
    assert "all cells match" in out


@pytest.mark.parametrize("flags", [
    ["--format", "csv"], ["-n", "9"], ["--n-range", "3..4"], ["--exhaustive"],
    ["--random"], ["--samples", "10"], ["--seed", "1"]],
    ids=["csv", "n", "n-range", "exhaustive", "random", "samples", "seed"])
def test_verify_tables_rejects_flags_it_would_ignore(capsys, flags):
    # the tables scan no corpus and have no CSV form; --workers has a default
    # and stays accepted.  argparse refuses -n and --n-range, which share a
    # group with --tables, and main() refuses the rest
    argv = ["verify", "--tables", "--workers", "2", *flags]
    if flags[0] in ("-n", "--n-range"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
    else:
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert flags[0] in captured.err
    assert captured.out == ""


def test_verify_exhaustive_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "4")
    assert code == 0
    assert "RESULT: PASS" in out
    assert "scanned 166 ideals" in out


def test_verify_text_deterministic_bytes(capsys, monkeypatch):
    # the header drops the elapsed time under --deterministic, so two runs that
    # took different times print the same bytes; without the flag it stays
    elapsed = iter([0.01, 12.5, 12.5])
    real = cli.run_verification
    monkeypatch.setattr(cli, "run_verification",
                        lambda plan: real(plan)._replace(elapsed=next(elapsed)))
    args = ("verify", "--exhaustive", "-n", "4")
    code1, out1, _ = run_cli(capsys, *args, "--deterministic")
    code2, out2, _ = run_cli(capsys, *args, "--deterministic")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "24 distinct profiles, workers=1" in out1
    code3, out3, _ = run_cli(capsys, *args)
    assert code3 == 0
    assert "24 distinct profiles, 12.50s, workers=1" in out3


def _pin_n9_failing_profile(monkeypatch):
    # every sample draws the generators of a pinned n = 9 profile on which
    # main and q6-bounds fail through the real checks
    ideal = compressed_complex_ideal(9, (1, 9, 36, 82, 105, 91, 40, 0, 0, 0))
    monkeypatch.setattr(corpus, "random_gen_masks", lambda n, rng: list(ideal.gens))


def test_verify_failure_path_end_to_end(capsys, monkeypatch):
    # 2,001 samples are two tasks, both in this process, so tallies fold
    # across them; the one failing profile is realized once per scan, from
    # its first sample, however many tasks meet it
    _pin_n9_failing_profile(monkeypatch)
    argv = ("verify", "--random", "-n", "9", "--samples", "2001", "--seed", "0",
            "--workers", "1")

    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--deterministic")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["total_failures"] == 4002
    summary = results["summaries"][0]
    for name in ("main", "q6-bounds"):
        assert summary["checks"][name] == {"applicable": 2001, "passed": 0, "failed": 2001}
    assert summary["distinct_profiles"] == 1
    witnesses = summary["witnesses"]
    assert [(w["sample_index"], w["check"]) for w in witnesses] == [(0, "main"), (0, "q6-bounds")]
    for w in witnesses:
        fresh = witness_from_ideal(parse_ideal(w["ideal"], 9), w["check"])
        assert fresh is not None
        assert fresh["alpha_quotient"] == [1, 9, 36, 82, 105, 91, 40, 0, 0, 0]
        # the JSON arrays are the real witness's, as decimal strings
        assert w == {k: [str(x) for x in v] if isinstance(v, list) else v
                     for k, v in fresh.items()} | {"sample_index": w["sample_index"]}

    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.count("  WITNESS main: n=9 ideal=(") == 1
    assert out.count("  WITNESS q6-bounds: n=9 ideal=(") == 1
    assert out.endswith("RESULT: FAIL (4002 failures)\n")

    # eleven tasks: the witnesses do not grow with the samples
    code, out, _ = run_cli(capsys, "verify", "--random", "-n", "9", "--samples", "20001",
                           "--seed", "0", "--workers", "1", "--format", "json",
                           "--deterministic")
    assert code == 1
    summary = json.loads(out)["results"]["summaries"][0]
    assert summary["checks"]["main"] == {"applicable": 20001, "passed": 0, "failed": 20001}
    assert summary["witnesses"] == witnesses


def test_verify_pool_realizes_the_same_witnesses(capsys, monkeypatch):
    # 4,001 samples are three tasks: with two workers each part comes back
    # from the pool, and the witness is realized after it in this process
    _pin_n9_failing_profile(monkeypatch)
    runs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "--random", "-n", "9", "--samples", "4001",
                               "--seed", "0", "--workers", workers, "--format", "json",
                               "--deterministic")
        assert code == 1
        summary = json.loads(out)["results"]["summaries"][0]
        runs.append({k: summary[k] for k in ("checks", "witnesses", "distinct_profiles")})
    assert runs[0] == runs[1]
    assert runs[0]["checks"]["main"] == {"applicable": 4001, "passed": 0, "failed": 4001}
    assert [w["sample_index"] for w in runs[0]["witnesses"]] == [0, 0]


@pytest.mark.parametrize("text", ["5", "a..b", "9..7"], ids=["no-dots", "not-int", "empty"])
def test_malformed_n_range_is_a_usage_error(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--exhaustive", "--n-range", text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n-range" in captured.err and repr(text) in captured.err


def test_verify_json_deterministic_bytes(capsys):
    args = ("verify", "--exhaustive", "--n-range", "1..4",
            "--format", "json", "--deterministic")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["config"]["n_values"] == [1, 2, 3, 4]
    sums = payload["results"]["summaries"]
    assert [s["scanned"] for s in sums] == [PROPER_IDEAL_COUNTS[n] for n in (1, 2, 3, 4)]
    assert payload["results"]["total_failures"] == 0
    assert "elapsed_seconds" not in sums[0]


def test_verify_json_stamps_without_deterministic(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generated_at"]
    assert payload["host"] == platform.node()
    assert "elapsed_seconds" in payload["results"]["summaries"][0]


def test_import_leaves_pool_and_platform_unloaded():
    # a fresh interpreter: --workers 1 never starts the pool, so importing the
    # CLI loads none of its modules, nor platform
    probe = ("import sys; before = set(sys.modules); import hilbertdepth.cli; "
             "print(sorted(m for m in set(sys.modules) - before "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'platform')))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("samples,workers", [("2000", "2"), ("4001", "1")],
                         ids=["one-task", "one-worker"])
def test_in_process_runs_leave_pool_unloaded(samples, workers):
    # the sample tasks are streamed, so whether the pool starts cannot rest on
    # counting them: one task, like one worker, runs in this process
    probe = ("import sys; from hilbertdepth.cli import main; "
             f"main(['verify', '--random', '-n', '7', '--samples', '{samples}', '--seed', '1', "
             f"'--workers', '{workers}', '--format', 'json']); "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')), file=sys.stderr)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["results"]["summaries"][0]["scanned"] == int(samples)
    assert proc.stderr.strip() == "[]"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are NamedTuples: importing dataclasses (and with it inspect)
    # cost every launch several milliseconds
    probe = ("import sys; import hilbertdepth.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_random_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "-n", "7",
                           "--samples", "400", "--seed", "11",
                           "--format", "json", "--deterministic")
    assert code == 0
    payload = json.loads(out)
    summary = payload["results"]["summaries"][0]
    assert summary["scanned"] == 400
    assert summary["seed"] == 11
    assert summary["checks"]["main"]["failed"] == 0


def test_verify_random_needs_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "--random", "-n", "7", "--samples", "10")
    assert code == 2
    assert "needs a seed" in err and "seed=None" in err
    code, _, err = run_cli(capsys, "verify", "--random", "-n", "7", "--seed", "1")
    assert code == 2
    assert "sample count >= 1" in err and "sample_count=0" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--exhaustive"])
    assert exc.value.code == 2  # needs -n or --n-range


def test_verify_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + PROPER_IDEAL_COUNTS[3]
    header = rows[0]
    assert header[:2] == ["n", "ideal"]
    assert "main" in header
    # every ideal row re-parses and re-verifies
    for row in rows[1:]:
        report = hdepth_report(parse_ideal(row[1], 3))
        assert report.hdepth_quotient == int(row[header.index("hdepth_quotient")])


def test_verify_csv_failing_rows(capsys, monkeypatch):
    # the two samples are the pinned n = 9 profiles: q = 6, where main and
    # q6-bounds fail, then q = 7, where main and lemma79 fail
    ideals = iter([compressed_complex_ideal(9, (1, 9, 36, 82, 105, 91, 40, 0, 0, 0)),
                   compressed_complex_ideal(9, (1, 9, 36, 84, 123, 111, 64, 20, 0, 0))])
    monkeypatch.setattr(cli, "random_ideal", lambda n, rng: next(ideals))
    code, out, _ = run_cli(capsys, "verify", "--random", "-n", "9", "--samples", "2",
                           "--seed", "0", "--format", "csv")
    assert code == 1
    header, *rows = csv.reader(io.StringIO(out))
    assert header[-5:] == ["main", "principal-equivalence", "bound-equivalence",
                           "q6-bounds", "lemma79"]
    assert [",".join(row[-5:]) for row in rows] == ["0,1,1,0,", "0,1,1,,0"]


def test_report_path_builds_no_beta_triangle(capsys, monkeypatch):
    # the CSV rows, run_checks and witness_from_ideal read the walk's b^q;
    # only compute's printout derives the full triangles
    _, expected, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "3", "--format", "csv")

    def no_triangle(counts):
        raise AssertionError("beta_triangle built on the report path")

    monkeypatch.setattr(depth, "beta_triangle", no_triangle)
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "3", "--format", "csv")
    assert (code, out) == (0, expected)
    alpha = (1, 9, 36, 82, 105, 91, 40, 0, 0, 0)
    w = witness_from_ideal(compressed_complex_ideal(9, alpha), "main")
    assert w["beta_quotient_at_q"] == list(beta_values(alpha, 6))


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "3",
                           "--format", "json", "--deterministic", "--out", str(path))
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["results"]["total_failures"] == 0


def test_verify_csv_streams_rows_to_out_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.csv"
    sizes = []

    def recording_report(ideal):
        sizes.append(path.stat().st_size if path.exists() else 0)
        return hdepth_report(ideal)

    monkeypatch.setattr(cli, "hdepth_report", recording_report)
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "3",
                           "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_bytes().decode()
    header = text.splitlines(keepends=True)[0]
    assert len(sizes) == PROPER_IDEAL_COUNTS[3]
    # the header and the first nine rows are in the file before the tenth report
    assert sizes[9] > len(header)
    assert text == run_cli(capsys, "verify", "--exhaustive", "-n", "3", "--format", "csv")[1]


def test_search_exhaustive_main(capsys):
    code, out, _ = run_cli(capsys, "search", "--predicate", "main", "-n", "4",
                           "--exhaustive", "--format", "json", "--deterministic")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["status"] == "none-exhaustive"
    assert payload["results"]["witnesses"] == []
    assert payload["results"]["instances_scanned"] == PROPER_IDEAL_COUNTS[4]


def test_search_random_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "search", "--predicate", "lemma79", "-n", "9",
                           "--random", "--samples", "300", "--seed", "1",
                           "--format", "json", "--deterministic")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["status"] == "inconclusive"


def test_search_unknown_predicate(capsys):
    # rejected while parsing, before the n = 7 exhaustive plan would fail its
    # capacity check
    with pytest.raises(SystemExit) as exc:
        main(["search", "--predicate", "nosuch", "--exhaustive", "-n", "7"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--predicate" in captured.err and "invalid choice" in captured.err
    assert captured.out == ""


def test_search_has_no_csv_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--predicate", "main", "--exhaustive", "-n", "4", "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--format" in captured.err
    assert captured.out == ""


def test_search_deterministic_bytes(capsys):
    args = ("search", "--predicate", "q6-bounds", "-n", "8", "--random",
            "--samples", "500", "--seed", "21", "--format", "json", "--deterministic")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_n_range_split(capsys):
    code, out, _ = run_cli(capsys, "search", "--predicate", "main", "--n-range", "7..9",
                           "--random", "--samples", "900", "--seed", "3",
                           "--format", "json", "--deterministic")
    assert code == 0
    payload = json.loads(out)
    per_n = payload["results"]["per_n"]
    assert [r["n_values"] for r in per_n] == [[7], [8], [9]]
    assert sum(r["instances_scanned"] for r in per_n) == 900


def test_predicate_registry_matches_cli_names():
    assert {"main", "principal-equivalence", "bound-equivalence",
            "q6-bounds", "lemma79", "beta47-bound"} == set(CHECK_ORDER)


def test_exhaustive_and_random_conflict(capsys):
    corpus = ["-n", "4", "--exhaustive", "--random", "--samples", "10", "--seed", "1"]
    for argv in (["verify"] + corpus, ["search", "--predicate", "main"] + corpus):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["search", "--predicate", "main"]],
                         ids=["verify", "search"])
def test_n_and_n_range_conflict(capsys, command):
    # one of them would be dropped silently: -n 5 beside --n-range 1..2 scanned n = 1, 2
    with pytest.raises(SystemExit) as exc:
        main(command + ["--exhaustive", "-n", "5", "--n-range", "1..2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["verify", "--exhaustive"],
                                     ["search", "--predicate", "main"]], ids=["verify", "search"])
def test_corpus_commands_need_n(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "required" in captured.err
    assert "-n" in captured.err and "--n-range" in captured.err
    # verify may take --tables in place of an n
    assert ("--tables" in captured.err) == (command[0] == "verify")
    assert captured.out == ""


@pytest.mark.parametrize("command, group", [
    ("verify", "(-n N | --n-range A..B | --tables)"), ("search", "(-n N | --n-range A..B)")],
    ids=["verify", "search"])
def test_usage_shows_the_required_n_group(capsys, monkeypatch, command, group):
    # argparse renders groups differently across versions; a wide terminal
    # keeps the group on one line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert group in capsys.readouterr().out.split("\n\n")[0]


@pytest.mark.parametrize("command", [
    ["verify", "--format", "json"], ["verify", "--format", "text"],
    ["verify", "--format", "csv"], ["search", "--predicate", "main", "--format", "json"],
], ids=["verify-json", "verify-text", "verify-csv", "search"])
def test_exhaustive_corpus_rejects_seed_and_samples(capsys, command):
    # a census draws nothing, so it must not echo a seed or sample count it ignored
    for draws in (["--seed", "9"], ["--samples", "10"], ["--seed", "9", "--samples", "10"]):
        code, out, err = run_cli(capsys, *command, "--exhaustive", "-n", "3", *draws)
        assert code == 2, draws
        assert out == ""
        assert "exhaustive corpus" in err and "no seed or sample count" in err


def test_max_witnesses_must_be_positive(capsys):
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--predicate", "main", "-n", "7", "--samples", "4000",
                  "--seed", "1", "--max-witnesses", bad])
        assert exc.value.code == 2
        assert "--max-witnesses" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--random", "-n", "9", "--format", "csv"],
    ["search", "--predicate", "main", "-n", "7"],
], ids=["verify-csv", "search"])
@pytest.mark.parametrize("flag", ["--samples", "--workers"])
def test_sample_and_worker_counts_must_be_positive(capsys, command, flag):
    for bad in ("0", "-5"):
        counts = {"--samples": "4000", "--workers": "1", flag: bad}
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "1"] + [a for kv in counts.items() for a in kv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("corpus", [["--random", "--samples", "10", "--seed", "1"],
                                    ["--exhaustive"]], ids=["random", "exhaustive"])
def test_csv_verify_rejects_more_than_one_worker(capsys, corpus):
    # the CSV report runs in one process, so asking for workers is an error
    assert main(["verify", "-n", "3", "--format", "csv", "--workers", "2"] + corpus) == 2
    captured = capsys.readouterr()
    assert "--workers" in captured.err
    assert captured.out == ""


def test_multi_n_commands_check_every_n_before_scanning(capsys, monkeypatch):
    # n = 7 is beyond the exhaustive ceiling and n = 26 beyond the random one
    # (alpha counting), so no n of the range may be scanned; a scan entry
    # point records its call and stops there.  One sample over 25..26 leaves
    # n = 26 no share of a search, and it is still checked.
    calls = []

    def refused(name):
        def scan(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called before every n was checked")
        return scan

    for target in ("hilbertdepth.cli.run_verification", "hilbertdepth.cli.enumerate_ideals",
                   "hilbertdepth.cli.random_ideal", "hilbertdepth.corpus.search_counterexample"):
        monkeypatch.setattr(target, refused(target))
    random_range = ["--random", "--n-range", "25..26", "--samples", "1", "--seed", "1"]
    for argv in (["verify", "--exhaustive", "--n-range", "5..7"],
                 ["verify", "--exhaustive", "--n-range", "5..7", "--format", "csv"],
                 ["search", "--predicate", "main", "--exhaustive", "--n-range", "5..7"],
                 ["verify", *random_range, "--format", "json"],
                 ["verify", *random_range, "--format", "csv"],
                 ["search", "--predicate", "main", *random_range]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4, argv
        assert out == "" and "capacity error" in err
    assert calls == []


def test_wide_n_range_is_checked_without_listing_it(capsys):
    # both commands stop at the first n past their ceiling (7 and 26); the
    # range is never listed, so its width costs no memory
    for argv in (["verify", "--exhaustive", "--n-range", "1..2000000"],
                 ["search", "--predicate", "main", "--random", "--n-range", "2..2000000",
                  "--samples", "5", "--seed", "1"]):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4, argv
        assert out == "" and "capacity error" in err
        assert peak < 1 << 20, (argv, peak)
