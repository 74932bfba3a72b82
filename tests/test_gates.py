"""The exact-output gate runner on two cheap gates of tests/gates.json."""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from run_gates import ROOT, run_gates

CHEAP = ("analyze maj:21 --json", "chernoff 'ltf:7,5,4,4,3,2,2,1,1;4' --c 1/64")
REPORTS = ("verify --suite paper-examples --corpus builtin --out builtin-examples.json",
           "verify --suite tail-lemmas --corpus builtin --out builtin-tail-lemmas.json")


def cheap_gates(cmds=CHEAP) -> list[dict]:
    spec = json.loads((ROOT / "tests" / "gates.json").read_text())
    gates = [g for g in spec["gates"] if g["cmd"] in cmds]
    assert [g["cmd"] for g in gates] == list(cmds)
    return gates


def run(tmp_path: Path, gates: list[dict], **kwargs) -> int:
    manifest = tmp_path / "gates.json"
    manifest.write_text(json.dumps({"files": {}, "gates": gates}))
    return run_gates(manifest, **kwargs)


def test_gates_pass_as_written(tmp_path, capsys):
    """Each gate's line gives its status, its seconds, its process's peak
    RSS and its command."""
    gates = cheap_gates()
    assert run(tmp_path, gates) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["ok", "ok"]
    for line, gate in zip(lines, gates):
        seconds, rss = re.fullmatch(r"ok +(\S+) s +(\S+) MB  (.*)", line).group(1, 2)
        assert line.endswith(f"MB  {gate['cmd']}") and float(seconds) >= 0 and float(rss) > 1


def test_a_wrong_digest_or_exit_code_fails_that_gate_alone(tmp_path, capsys):
    """Two copies of the chernoff gate, one with a broken digest and one
    expecting the wrong exit code, fail around the gate as written."""
    _, chernoff = cheap_gates()
    [(name, digest)] = chernoff["sha256"].items()
    broken = {**chernoff, "sha256": {name: digest[::-1]}}
    wrong_exit = {**chernoff, "exit": 1}
    assert run(tmp_path, [broken, chernoff, wrong_exit]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if not line.startswith(" ")] == ["FAIL", "ok", "FAIL"]
    assert [line.strip() for line in out if line.startswith(" ")] == [
        f"{name}: sha256 {digest}, expected {digest[::-1]}", "exit 0, expected 1"]


def test_a_gate_above_its_memory_ceiling_fails_alone(tmp_path, capsys):
    """Two copies of the analyze gate, one with a max_rss_mb below what its
    process needs and one with room to spare: the first fails with its
    measured peak, the second passes."""
    analyze, _ = cheap_gates()
    assert run(tmp_path, [{**analyze, "max_rss_mb": 1}, {**analyze, "max_rss_mb": 10_000}]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if not line.startswith(" ")] == ["FAIL", "ok"]
    rss = re.fullmatch(r"FAIL +\S+ s +(\S+) MB  .*", out[0]).group(1)
    assert float(rss) > 1
    assert [line.strip() for line in out if line.startswith(" ")] == [
        f"peak RSS {rss} MB, above max_rss_mb 1"]


def test_a_gate_env_reaches_that_gate_process_alone(tmp_path, capsys, monkeypatch):
    """argparse wraps --help at $COLUMNS: a gate pinned to the 30-column
    text passes with env COLUMNS=30 and fails without it, and the env set
    for one gate does not leak into the next."""
    monkeypatch.delenv("COLUMNS", raising=False)
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    narrow = subprocess.run([sys.executable, "-m", "cubelab.cli", "--help"], capture_output=True,
                            env={**os.environ, "PYTHONPATH": path, "COLUMNS": "30"}, check=True)
    digest = hashlib.sha256(narrow.stdout).hexdigest()
    gate = {"cmd": "--help", "exit": 0, "stdout": "help.txt", "sha256": {"help.txt": digest}}
    assert run(tmp_path, [{**gate, "env": {"COLUMNS": "30"}}, gate]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert [line.split()[0] for line in lines] == ["ok", "FAIL"]
    assert re.fullmatch(r"ok +\d+\.\d s +\d+\.\d MB  COLUMNS=30 --help", lines[0])
    assert re.fullmatch(r"FAIL +\d+\.\d s +\d+\.\d MB  --help", lines[1])


def test_the_workflow_pins_no_digest_itself():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "python3 tests/run_gates.py" in workflow
    assert not [line for line in workflow.splitlines() if "sha256sum" in line]


def test_a_moved_report_is_explained_against_a_kept_copy(tmp_path, capsys):
    """Two report gates run with --keep; the kept copy of the second report
    then differs in one record's notes, and its gate pins that copy's
    bytes.  Run --against the copy, the first gate passes with no diff and
    the second fails with report_diff's summary: one check id, one field."""
    kept = tmp_path / "kept"
    gates = cheap_gates(REPORTS)
    assert run(tmp_path, gates, keep=kept) == 0
    capsys.readouterr()
    first, [name] = gates[0]["sha256"], gates[1]["sha256"]
    assert all((kept / out).exists() for out in [*first, name])
    report = json.loads((kept / name).read_text())
    record = report["records"][0]
    record["notes"] += " (kept)"
    altered = json.dumps(report).encode()
    (kept / name).write_bytes(altered)
    pinned = {**gates[1], "sha256": {name: hashlib.sha256(altered).hexdigest()}}
    assert run(tmp_path, [gates[0], pinned], against=kept) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if not line.startswith(" ")] == ["ok", "FAIL"]
    detail = [line.strip() for line in out if line.startswith(" ")]
    assert detail[0].startswith(f"{name}: sha256 ")
    assert detail[1:] == [f"{record['check_id']}:", "fields differ: notes (1)",
                          "1 check ids differ; 0 records in one report only"]


def test_an_env_gate_that_moves_a_report_is_explained_against_the_default_run(tmp_path, capsys):
    """A default gate writes a report; a gate with an env map pins the same
    sha256, but its corpus has one threshold moved, which moves the notes
    of one LEM52 record.  The env gate fails with report_diff's summary
    against the default run's output; the same gate without env prints the
    bare digest line."""
    corpus = {"name": "pair", "entries": ["ltf:3,2,1;1", "ltf:5,3,3,1,1;2"]}
    moved = {**corpus, "entries": ["ltf:3,2,1;1", "ltf:5,3,3,1,1;4"]}
    files = {"pair.json": json.dumps(corpus), "moved.json": json.dumps(moved)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cmd = "verify --suite tail-lemmas --corpus {} --out {}"
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    argv = [sys.executable, "-m", "cubelab.cli", *cmd.format("pair.json", "a.json").split()]
    subprocess.run(argv, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, check=True)
    digest = hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest()
    default = {"cmd": cmd.format("pair.json", "default.json"), "exit": 0,
               "sha256": {"default.json": digest}}
    env_gate = {"cmd": cmd.format("moved.json", "env.json"), "exit": 0,
                "sha256": {"env.json": digest}, "env": {"OPENBLAS_NUM_THREADS": "1"}}
    plain = {**env_gate, "env": {}}
    manifest = tmp_path / "gates.json"
    manifest.write_text(json.dumps({"files": files, "gates": [default, env_gate, plain]}))
    assert run_gates(manifest) == 1
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if not line.startswith(" ")]
    assert [out[i].split()[0] for i in heads] == ["ok", "FAIL", "FAIL"]
    detail = [line.strip() for line in out[heads[1] + 1 : heads[2]]]
    assert detail[0].startswith("env.json: sha256 ") and detail[1] == "against default.json:"
    assert detail[2:] == ["LEM52:", "fields differ: notes (1)",
                          "1 check ids differ; 0 records in one report only"]
    assert [line.strip().split(":")[0] for line in out[heads[2] + 1 :]] == ["env.json"]
