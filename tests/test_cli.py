import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from cubelab import cli, harness
from cubelab.bfcore import MAX_N, TABLE_CAP, FunctionSpec


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


def test_analyze_halfspace_past_the_table_cap(capsys, monkeypatch):
    """25 coordinates, one past bfcore.TABLE_CAP: influences and vertex
    boundaries come from the halfspace, and no 2^25 table is built for level
    weights."""

    def no_table(*args, **kwargs):
        raise AssertionError("a truth table was built past the cap")

    monkeypatch.setattr(FunctionSpec, "build", no_table)
    n = TABLE_CAP + 1
    code, out = run(capsys, "analyze", "ltf:" + ",".join(["1"] * n) + ";0", "--json")
    assert code == 0
    data = json.loads(out)
    assert "level_weights" not in data
    assert data["mean"] == "1/2"
    assert data["influences"] == [str(Fraction(comb(n - 1, n // 2), 1 << (n - 1)))] * n
    side = str(Fraction(comb(n, n // 2), 1 << n))  # a.x = +-1: one flip crosses
    assert data["vertex_boundary"] == {"vb0": side, "vb1": side}


def test_analyze_majority_past_62_summands(capsys):
    """maj:101 as a halfspace: its counts reach 2^100, past int64, and the
    mean and every influence are exact."""
    code, out = run(capsys, "analyze", "maj:101", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == "1/2"
    assert data["influences"] == [str(Fraction(comb(100, 50), 1 << 100))] * 101


WIDE = {"name": "wide", "entries": [
    "ltf:" + ",".join(str(1 + i % 3) for i in range(64)) + ";5",
    "ltf:" + ",".join(["5"] * 4 + ["4"] * 125) + ";1",  # the 5&4 family at n = 129
    "ltf:" + ",".join(["1"] * 1022) + ";1020",  # eps = 2^-1022
    "ltf:" + ",".join(["1"] * 1022) + ";0",
    "ltf:" + ",".join(str(1 + i % 3) for i in range(1022)) + ";7"]}


@pytest.mark.parametrize("suite", ["chernoff", "boundary", "tail-lemmas", "pinned"])
def test_verify_halfspace_suites_past_62_summands(capsys, tmp_path, suite):
    """Members of 64, 129 and 1022 coordinates, whose counts leave int64,
    among them eps = 2^-1022 and t = 0: every check reaches a verdict, and
    the only skips are hypotheses these members do not meet."""
    corpus = tmp_path / "wide.json"
    corpus.write_text(json.dumps(WIDE))
    code, _ = run(capsys, "verify", "--suite", suite, "--corpus", str(corpus), "--pin",
                  "--constants", str(tmp_path / "c.json"), "--out", str(tmp_path / "r.json"))
    assert code == 0
    records = json.loads((tmp_path / "r.json").read_text())["records"]
    assert {r["instance"].split()[0] for r in records} == {f"wide#{i}" for i in range(5)}
    skips = {(r["check_id"], r["notes"]) for r in records if r["status"] != "pass"}
    assert skips <= {("LEM51", "no weight above beta/2"), ("PROP5", "eps >= 1/4")}


@pytest.mark.parametrize("command", ["analyze", "spectrum", "correlate"])
@pytest.mark.parametrize("spec", [f"tribes:2,{(MAX_N + 1) // 2}", f"talagrand:{MAX_N + 1}:7"])
def test_table_command_refuses_an_arity_past_the_cap(capsys, command, spec):
    """A descriptor with no halfspace behind it and one coordinate past
    bfcore.MAX_N is exit 2 naming the range, before a table is drawn."""
    tracemalloc.start()
    try:
        code = cli.main([command, spec])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: arity {MAX_N + 1} outside supported range 1..{MAX_N}\n")
    assert peak < 1 << 20  # a 2^26 table would be 64 MiB


@pytest.mark.parametrize("spec", ["subcube:3", "maj:5,7", "paper5:1", "tt:2:1ff", "mystery:3",
                                  "subcube:5,3"])
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


def test_verify_refuses_corpus_with_out_of_range_halfspace(capsys, tmp_path):
    """subcube:5,3 has a halfspace but no build; the corpus is refused at load."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "entries": ["subcube:5,3"]}))
    assert cli.main(["verify", "--suite", "tail-lemmas", "--corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert "entry 0: subcube size 5 outside 1..3" in captured.err
    assert "total:" not in captured.out


def test_spectrum_stdout_and_csv(capsys, tmp_path):
    code, out = run(capsys, "spectrum", "maj:3")
    assert code == 0
    assert "mask,numerator,denominator_log2" in out
    assert "1,2,3" in out  # f-hat({1}) = 2/8 = 1/4
    path = tmp_path / "spec.csv"
    code, note = run(capsys, "spectrum", "maj:3", "--csv", str(path))
    assert code == 0
    assert note == f"wrote 8 rows to {path}\n"
    assert path.read_bytes() == out.encode()  # one writer: the file holds stdout's bytes


def test_src_holds_only_what_the_cli_loads():
    """Importing the CLI loads one cubelab module per file under src/cubelab:
    code that no program path reaches belongs beside its tests."""
    package = Path(cli.__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(package.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cubelab.cli; "
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cubelab'))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    files = sorted("cubelab" if p.stem == "__init__" else f"cubelab.{p.stem}"
                   for p in package.glob("*.py"))
    assert loaded == files


def test_chernoff_command(capsys):
    code, out = run(capsys, "chernoff", "ltf:1,1,1;0", "--c", "1/3")
    assert code == 0
    assert "delta for factor 1/3: 1" in out
    assert "beta=1" in out


@pytest.mark.parametrize("c", ["-1/2", "0", "3"])
def test_chernoff_refuses_a_factor_outside_the_unit_interval_first(capsys, c):
    """--c outside (0, 1] exits 2 before the first line is printed."""
    assert cli.main(["chernoff", "ltf:3,2,1;1", f"--c={c}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --c={c}: decay factor must be in (0, 1]\n"


def test_scaled_weights_past_the_bound_exit_2(capsys, tmp_path):
    """Two weights of 2^62 (the AND) sum past 2^60 once scaled: spectrum and
    analyze refuse with the bound, and a corpus holding the entry is refused
    at load, before any check runs."""
    spec = f"ltf:{1 << 62},{1 << 62};0"
    for argv in (["spectrum", spec], ["analyze", f"ltf:{1 << 62},{1 << 62},1;0"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bound 2^60" in captured.err
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"name": "wide", "entries": ["maj:3", spec]}))
    assert cli.main(["verify", "--suite", "exact-identities", "--corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert "entry 1: scaled weights sum to" in captured.err and "total:" not in captured.out


def test_corpus_gen_refuses_a_negative_count(capsys, tmp_path):
    path = tmp_path / "c.json"
    argv = ["corpus", "gen", "--kind", "random-halfspace", "--count", "-3", "--out", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: count=-3 is negative\n" and not path.exists()


def test_correlate_command(capsys):
    code, out = run(capsys, "correlate", "paper5")
    assert code == 0
    assert "cov=3/32" in out
    assert "cov=1/8" in out


def test_correlate_full_scan_in_seconds(capsys):
    """All 2^16 sign patterns of tribes:4,4 from one XOR convolution print
    the bytes of the former per-pattern recount, which took about 13 s on a
    2-core host; the transforms take well under a second there."""
    start = time.perf_counter()
    code, out = run(capsys, "correlate", "tribes:4,4", "--full-scan")
    seconds = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a05a3542a264df03c16ef6e80b10a632e4fc6bbfa2ffbe44a3801142f6bb2f1b")
    assert seconds < 4, seconds


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


# for each kind, an option of a parameter it does not take
FOREIGN_OPTIONS = {"builtin-all": ("--count", "2"), "random-halfspace": ("--n", "5"),
                   "random-rational-halfspace": ("--n", "5"),
                   "random-function": ("--eps-lo", "1/8"), "monotone-random": ("--n-hi", "9")}


def test_corpus_gen_refuses_an_option_the_kind_does_not_take(capsys, tmp_path):
    assert set(FOREIGN_OPTIONS) == set(harness.CORPUS_KINDS)
    for kind, option in FOREIGN_OPTIONS.items():
        path = tmp_path / f"{kind}.json"
        assert cli.main(["corpus", "gen", "--kind", kind, *option, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corpus kind '{kind}' takes no parameter")
        assert not path.exists()


def test_corpus_gen_band_on_one_side_takes_the_kinds_default(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, out = run(capsys, "corpus", "gen", "--kind", "random-rational-halfspace",
                    "--count", "3", "--eps-lo", "1/2048", "--out", str(path))
    want = harness.corpus_gen("random-rational-halfspace",
                              {"count": 3, "eps_band": (Fraction(1, 2048), Fraction(1, 4))})
    assert code == 0 and f"(digest {want.digest})" in out
    assert harness.Corpus.load(path) == want


@pytest.mark.parametrize("spec, digest", [
    ("ltf:5,4,3,2,1;7/2", "e69131db88dc0575097e88f570b75d2d5749a2370e325f224047561d585dee20"),
    ("ltf:4/5,3/5;0", "4290b2339335e06d521fa0875f4ac7433ee0091f2cdce54aadf8f532088e1e93"),
    ("dict:4", "46726e32d391a7b13ad297324020e075ada7ead4f23d652bc4e5c2f2c377fea9"),
    ("maj:9", "24c2aec1c5aa8cc4207fc95025d524e4af0ac7be5425b9f027f42517d4e7848a"),
    ("tribes:3,3", "0336ff58f57351505340ffaf7c3290d2a33c8a67e3366e127dea8fc98a9b7293"),
    ("paper5", "25e20e30d3163eb5d3cb40e7adec11d155d1c178b75437f1321035f5f511c3a4"),
])
def test_analyze_json_bytes_are_stable(capsys, spec, digest):
    """Halfspaces and truth tables fill the same output keys."""
    code, out = run(capsys, "analyze", spec, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
