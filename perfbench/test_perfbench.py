"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
an operation whose library output is wrong is counted as failed, and that
the benchmark refuses to run without the library sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402
from affconn import Corruption, curvature_direct, preset_manifold, random_spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_cli",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["connection.evaluate_spec_calls_per_fail"] == 15
        assert metrics["curvature.direct_calls_per_fail"] == 20
        assert metrics["fields.jet_distinct_ratio_fail"] < 0.5


def _compare_op(monkeypatch, direct):
    monkeypatch.setattr(workloads, "curvature_direct", direct)
    man = preset_manifold("bumpy", {"n": 2, "eps": 0.05, "seed": 11})
    return workloads.compare_op(man, random_spec(man.chart, 5), man.chart.sample(8, 6))


def test_clean_operation_passes(monkeypatch):
    record = worker.run_op(_compare_op(monkeypatch, curvature_direct))
    assert record.failure is None


def test_corrupted_operation_is_counted_as_failed(monkeypatch):
    corrupted = functools.partial(curvature_direct, corrupt=Corruption("h_f1"))
    record = worker.run_op(_compare_op(monkeypatch, corrupted))
    assert record.failure is not None and "curvature residual" in record.failure


def test_non_finite_tensor_fails_even_with_zero_residual(monkeypatch):
    def nan_direct(*args, **kwargs):
        return np.full_like(curvature_direct(*args, **kwargs), np.nan)

    record = worker.run_op(_compare_op(monkeypatch, nan_direct))
    assert record.failure is not None and "non-finite" in record.failure


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
