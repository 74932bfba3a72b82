import json

import pytest

from cubelab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_json(capsys):
    code, out = run(capsys, "analyze", "subcube:3,5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == "1/8"
    assert data["vertex_boundary"] == {"vb0": "3/8", "vb1": "1/8"}


def test_analyze_truth_table(capsys):
    code, out = run(capsys, "analyze", "paper5")
    assert code == 0
    assert "mean: 1/2" in out


@pytest.mark.parametrize("spec", ["subcube:3", "maj:5,7", "paper5:1", "tt:2:1ff", "mystery:3"])
def test_analyze_refuses_malformed_descriptor(capsys, spec):
    """A refusal is exit 2 with a message, not a traceback's exit 1."""
    assert cli.main(["analyze", spec]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_refuses_corpus_with_malformed_entry(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "entries": ["maj:3", "subcube:3"]}))
    assert cli.main(["verify", "--suite", "exact-identities", "--corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert "entry 1: 'subcube' takes 2 parameters" in captured.err
    assert "total:" not in captured.out


def test_spectrum_stdout_and_csv(capsys, tmp_path):
    code, out = run(capsys, "spectrum", "maj:3")
    assert code == 0
    assert "mask,numerator,denominator_log2" in out
    assert "1,2,3" in out  # f-hat({1}) = 2/8 = 1/4
    path = tmp_path / "spec.csv"
    code, out = run(capsys, "spectrum", "maj:3", "--csv", str(path))
    assert code == 0
    assert path.read_text().count("\n") == 9


def test_chernoff_command(capsys):
    code, out = run(capsys, "chernoff", "ltf:1,1,1;0", "--c", "1/3")
    assert code == 0
    assert "delta for factor 1/3: 1" in out
    assert "beta=1" in out


def test_correlate_command(capsys):
    code, out = run(capsys, "correlate", "paper5")
    assert code == 0
    assert "cov=3/32" in out
    assert "cov=1/8" in out


def test_corpus_gen_and_verify(capsys, tmp_path):
    corpus_path = tmp_path / "c.json"
    code, out = run(capsys, "corpus", "gen", "--kind", "random-halfspace",
                    "--seed", "5", "--count", "3", "--n-lo", "8", "--n-hi", "9",
                    "--out", str(corpus_path))
    assert code == 0 and "wrote 3 entries" in out
    report_path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "--suite", "exact-identities",
                    "--corpus", str(corpus_path), "--out", str(report_path))
    assert code == 0
    assert "failures" in out
    payload = json.loads(report_path.read_text())
    assert payload["suite"] == "exact-identities"


def test_verify_pin_flow(capsys, tmp_path):
    corpus_path = tmp_path / "c.json"
    run(capsys, "corpus", "gen", "--kind", "random-halfspace", "--seed", "6",
        "--count", "3", "--n-lo", "8", "--n-hi", "9", "--out", str(corpus_path))
    constants_path = tmp_path / "pins.json"
    code, out = run(capsys, "verify", "--suite", "chernoff",
                    "--corpus", str(corpus_path),
                    "--pin", "--constants", str(constants_path))
    assert code == 0
    assert constants_path.exists()
    code, out = run(capsys, "verify", "--suite", "chernoff",
                    "--corpus", str(corpus_path),
                    "--constants", str(constants_path))
    assert code == 0


def test_verify_exit_code_reflects_failures(capsys, tmp_path):
    # paper-examples carries the heavy-light family check, which is red by
    # construction at its pinned size; the exit code must say so
    code, out = run(capsys, "verify", "--suite", "paper-examples",
                    "--corpus", "builtin")
    assert code == 1
    assert "EX54" in out


@pytest.mark.parametrize("suite, records", [("tail-lemmas", 112), ("levelk", 72)])
def test_verify_halfspace_suites_on_builtin(capsys, suite, records):
    # the builtin corpus mixes halfspaces with truth-table-only members
    # (tribes, paper5, talagrand); halfspace checks must pass those by
    code, out = run(capsys, "verify", "--suite", suite, "--corpus", "builtin")
    assert code == 0
    assert f"total: {records} records, 0 failures" in out


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
