"""Command-line interface: formats, determinism, and exit codes."""

import csv
import io
import json

import pytest

from hilbertdepth import cli
from hilbertdepth.cli import main
from hilbertdepth.corpus import PROPER_IDEAL_COUNTS
from hilbertdepth.depth import hdepth_report
from hilbertdepth.ideals import parse_ideal
from hilbertdepth.theorems import CHECKS


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


def test_compute_needs_n(capsys):
    code, out, err = run_cli(capsys, "compute", "x1*x2")
    assert code == 2
    assert "-n" in err
    assert out == ""


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


def test_verify_tables(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tables")
    assert code == 0
    assert "all cells match" in out


def test_verify_exhaustive_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "-n", "4")
    assert code == 0
    assert "RESULT: PASS" in out
    assert "scanned 166 ideals" in out


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
    code, _, err = run_cli(capsys, "verify", "--random", "-n", "7", "--seed", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--exhaustive")
    assert code == 2  # needs -n or --n-range


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
    code, _, err = run_cli(capsys, "search", "--predicate", "bogus", "-n", "4",
                           "--exhaustive")
    assert code == 2


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
            "q6-bounds", "lemma79", "beta47-bound"} == set(CHECKS)


def test_exhaustive_and_random_conflict(capsys):
    corpus = ["-n", "4", "--exhaustive", "--random", "--samples", "10", "--seed", "1"]
    for argv in (["verify"] + corpus, ["search", "--predicate", "main"] + corpus):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


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
