"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def _run(capsys, workload, seed=1, seconds=1, trace=0, expected=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    assert run.main(argv, expected=expected or EXPECTED) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return lines, json.loads(lines[-1]), digest


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_every_end_to_end_metric_is_printed_with_its_unit(capsys):
    lines, result, _ = _run(capsys, "table-n22")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("op_tail_ms ") and " ops)" in line for line in lines)
    assert f"ops_attempted {result['attempted']}" in lines
    assert "ops_failed 0" in lines


def test_every_per_layer_metric_is_printed_and_self_times_fit_the_wall(capsys):
    lines, result, _ = _run(capsys, "halfspace", trace=1)
    metrics = result["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == run.per_layer_names()
    for name, unit in run.per_layer_names():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert metrics["trace.self_s_total"]["value"] <= metrics["trace.wall_s"]["value"]
    assert metrics["halfspace.dist_build.mitm.calls"]["value"] > 0
    assert metrics["trace.absent_names"]["value"] == 0


def test_a_tampered_expected_digest_is_caught(capsys):
    _, _, digest = _run(capsys, "table-n22", seed=3)
    key = "table-n22 seed=3 seconds=1"
    good = dict(EXPECTED, digests={key: digest})
    _, result, _ = _run(capsys, "table-n22", seed=3, expected=good)
    assert result["correct"] and result["failed"] == 0
    tampered = dict(EXPECTED, digests={key: ("0" if digest[0] != "0" else "1") + digest[1:]})
    lines, result, _ = _run(capsys, "table-n22", seed=3, expected=tampered)
    assert not result["correct"] and result["failed"] == 1
    assert any("differs from the recorded" in line for line in lines)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_the_same_digest(capsys, workload):
    _, plain, digest = _run(capsys, workload, seed=2)
    _, traced, traced_digest = _run(capsys, workload, seed=2, trace=1)
    assert digest == traced_digest
    assert plain["correct"] and traced["correct"]
    # a plain run times PASSES passes over the plan, a traced run three
    assert plain["attempted"] * 3 == traced["attempted"] * run.PASSES


def test_each_op_counts_at_its_best_pass():
    def rec(*times):
        r = workloads.Recorder()
        r.times = list(times)
        r.labels = ["a", "b", "c", "d"]
        return r

    nan = float("nan")
    best = run.best_op_times([rec(0.3, 0.1, nan, nan), rec(0.2, 0.4, 0.5, nan)])
    assert best == [(0.2, "a"), (0.1, "b"), (0.5, "c")]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_seed_changes_the_inputs_deterministically(workload):
    wl = workloads.WORKLOADS[workload]()
    assert wl.plan(1, 1) == wl.plan(1, 1)
    assert wl.plan(1, 1) != wl.plan(2, 1)
    assert wl.plan(2, 30) == wl.plan(2, 30)


def test_seconds_scale_the_plan():
    wl = workloads.Halfspace()
    assert len(wl.plan(1, 1)) < len(wl.plan(1, 20)) < len(wl.plan(1, 40))


def test_a_refused_op_counts_as_failed():
    # 41 coordinates of 24-bit weights: over the dense budget and the
    # meet-in-the-middle cap, so the first distribution query refuses
    desc = workloads._ltf_text([1 << 24] * 41, 1 << 26)
    rec = workloads.Recorder()
    workloads.Halfspace().run((desc,), rec)
    assert rec.attempted == workloads.HALFSPACE_OPS
    assert rec.failed == workloads.HALFSPACE_OPS - 1
    assert any("BudgetError" in p for p in rec.problems)


def test_a_removed_function_shows_up_as_absent(capsys, monkeypatch):
    import cubelab.correlate

    monkeypatch.delattr(cubelab.correlate, "unbiased_correlator")
    lines, result, _ = _run(capsys, "halfspace", trace=1)
    assert result["correct"]
    assert result["metrics"]["correlate.unbiased_correlator.self_s"]["value"] == 0
    assert result["metrics"]["trace.absent_names"]["value"] == 1
    assert "absent: correlate.unbiased_correlator (no such function in the package)" in lines


def test_tracing_reaches_names_bound_by_from_import():
    import cubelab.checks
    import cubelab.influence

    original = cubelab.influence.influences
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cubelab.checks.influences is cubelab.influence.influences
        assert cubelab.checks.influences is not original
    finally:
        tracer.uninstall()
    assert cubelab.checks.influences is original is cubelab.influence.influences


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "table-n22", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
