"""Smoke test of the benchmark harness at the tiny size; it times nothing.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_tiny_workload_passes_its_checks_and_reports_every_layer(workload, tmp_path):
    result = harness.run_workload(workload, 3, 0.0, True, "tiny", ROOT, tmp_path)
    assert result["failed"] == 0, result["details"]["problems"]
    assert result["correct"] and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    ops = result["details"]["ops_per_iteration"]
    assert result["metrics"]["cli.main.calls"]["value"] == ops
    assert (tmp_path / f"spans-{workload}-tiny-seed3.json").is_file()


def test_untraced_run_reports_the_end_to_end_metrics_but_setup(tmp_path):
    result = harness.run_workload("tables_tpm", 0, 0.0, False, "tiny", ROOT, tmp_path)
    assert result["correct"]
    names = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert set(result["metrics"]) == names
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_output_check_flags_a_wrong_reference_value(tmp_path):
    op = workloads.build("tables_tpm", 0, "tiny", tmp_path)[0]
    runner = harness.Runner(harness._import_cli(ROOT).main, [op])
    runner.iteration()
    assert runner.failed == 0
    report_path = op.out / "report.json"
    payload = json.loads(report_path.read_text())
    payload["report"]["mean_work"] *= 1.0 + 1e-6
    report_path.write_text(json.dumps(payload))
    assert any("mean_work" in p for p in op.check(op.out))


def test_failing_operation_is_counted(tmp_path):
    op = workloads.Operation("exit1", [], lambda out: [], tmp_path / "out")
    runner = harness.Runner(lambda argv: 1, [op])
    runner.iteration()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_missing_wrap_target_fails_loudly_and_restores_the_others(monkeypatch):
    from curvedwork import cli, scenarios

    original = cli.run_scenario
    monkeypatch.delattr(scenarios, "propagator")
    with pytest.raises(tracer.MissingTarget, match="propagator"):
        with tracer.installed(tracer.Tracer()):
            pass
    assert cli.run_scenario is original


def test_launcher_fails_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "verify_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
