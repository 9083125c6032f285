"""Self-checks of the benchmark: each workload exercises the layers it is
meant to and bypasses the rest, every listed per-layer metric is recorded
somewhere, and wrong program output fails a run. Run from the repo root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from stereoloc import estimator, harness, synth  # noqa: E402

PULLBACKS = [f"autodiff.pullback.{p}.ms" for p in run._PRIMITIVES]


def bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced() -> dict[str, dict[str, float]]:
    """Per-layer metrics of one short traced run per workload."""
    out = {}
    for workload in run.WORKLOADS:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        out[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_pullbacks_run_only_in_training(traced):
    for name in PULLBACKS:
        assert traced["train-desk"][name] > 0, name
        assert traced["repeat-day"][name] == 0, name
        assert traced["repeat-block"][name] == 0, name


def test_ransac_runs_only_when_repeating(traced):
    # align_core also runs inside autodiff.rigid_align, so ransac_pose is
    # the marker.
    assert traced["train-desk"]["estimator.ransac_pose.calls"] == 0
    assert traced["repeat-day"]["estimator.ransac_pose.calls"] == 1


def test_block_matching_only_on_repeat_block(traced):
    # Two calls per localized frame (live and vertex disparity), plus one
    # per taught frame: 10 taught frames per 80 localized ones.
    per_teach = 1 / len(synth.DAY_SCHEDULE)
    assert traced["repeat-block"]["synth.block_match_disparity.calls"] == pytest.approx(
        2 + per_teach)
    assert traced["repeat-day"]["synth.block_match_disparity.calls"] == 0
    assert traced["train-desk"]["synth.block_match_disparity.calls"] == 0


def test_every_layer_metric_is_recorded(traced):
    # Counts of wasted work and the overhead estimate may legitimately read
    # 0; the spans they come from are checked through their other metrics.
    may_be_zero = {"estimator.align_core.degenerate", "training.total_loss.skipped_fraction",
                   "bench.tracing.overhead_ms"}
    for name in run.PER_LAYER:
        assert all(name in metrics for metrics in traced.values()), name
        if name not in may_be_zero:
            assert any(metrics[name] > 0 for metrics in traced.values()), name


def test_tracer_restores_functions_and_refuses_by_value_copies(monkeypatch):
    original = estimator.ransac_pose
    with tracer.Tracer().installed():
        assert estimator.ransac_pose is not original
    assert estimator.ransac_pose is original

    fake = types.ModuleType("stereoloc._by_value")
    fake.ransac_pose = original
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    with pytest.raises(RuntimeError, match="by value"):
        with tracer.Tracer().installed():
            pass
    assert estimator.ransac_pose is original


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(harness, "RUN_CSV_FIELDS", ["frame", "inliers"])
    code = run.main(["--workload", "repeat-day", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["metrics"] == {}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "repeat-day", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
