"""Smoke tests of ``tools/report_digest.py``, the bit-identity check between
two trees (its output format, and that its digest is stable and sees the
batch size), of ``tools/step_peaks.py``, the memory and page faults of
each step of a formula-vs-oracle comparison, and of ``tools/interleave.py``,
the in-process A/B of two trees.  Also guards on what the benchmark needs of
the library, which its own tests check only outside this suite: the
surface ``perfbench/tracing.py`` wraps, the verdict
``perfbench/workloads.py`` gives each catalogue preset, and that no pass of
a workload calls ``np.linalg.inv`` or ``eigvalsh``."""

import importlib
import importlib.util
import json
import math
import re
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from affconn import curvature, levi_civita, list_cases, preset_manifold
from affconn.cli import cmd_verify, parse_config

ROOT = Path(__file__).resolve().parents[1]
DIGEST_SCRIPT = ROOT / "tools" / "report_digest.py"
STEP_PEAKS_SCRIPT = ROOT / "tools" / "step_peaks.py"
INTERLEAVE_SCRIPT = ROOT / "tools" / "interleave.py"
DIGEST_CONFIGS = sorted((ROOT / "tools" / "digest_configs").glob("*.json"))
TRACING_MODULE = ROOT / "perfbench" / "tracing.py"
WORKLOADS_MODULE = ROOT / "perfbench" / "workloads.py"

X1 = {"terms": [{"c": 1.0, "e": [1, 0]}]}
X2 = {"terms": [{"c": 1.0, "e": [0, 1]}]}


def raw_bumpy2(points_seed: int) -> dict:
    return {
        "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
        "connection": {
            "raw": {
                "f1": X1, "f2": 0.25, "u": [0, X1], "u1": [X2, 0],
                "u2": [X1, X2], "phi": [[X1, 1.0], [0, X2]],
            }
        },
        "points": {"count": 3, "seed": points_seed},
    }


def load_script(name: str, path: Path):
    """Import the file at ``path`` as module ``name`` (registered, so that its
    dataclasses can resolve their module)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report_digest():
    return load_script("report_digest", DIGEST_SCRIPT)


def test_report_digest_prints_a_stable_digest_per_config(tmp_path, capsys, report_digest):
    paths = []
    for seed in (9, 10):
        path = tmp_path / f"bumpy2-{seed}.json"
        path.write_text(json.dumps(raw_bumpy2(seed)), encoding="utf-8")
        paths.append(str(path))

    def digests(*options) -> list:
        assert report_digest.main([*options, *paths]) == 0
        return [line.split("  ") for line in capsys.readouterr().out.splitlines()]

    first = digests()
    assert [name for _, name in first] == [*paths, "overall"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in first)
    assert len({digest for digest, _ in first}) == 3
    assert digests() == first
    wider = digests("--points", "4")
    assert [name for _, name in wider] == [*paths, "overall"]
    assert all(a != b for (a, _), (b, _) in zip(wider, first))


def test_step_peaks_prints_each_compare_step(capsys):
    step_peaks = load_script("step_peaks", STEP_PEAKS_SCRIPT)
    assert step_peaks.main(["--n", "2", "bumpy", "20", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["step", "held_mb", "peak_mb", "minflt", "sys_ms"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["frame", "formula", "oracle", "laws", "residual"]
    values = [float(v) for row in rows for v in row[1:]]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
    assert all(float(peak) >= float(held) for _, held, peak, _, _ in rows)
    assert all(int(minflt) >= 0 for _, _, _, minflt, _ in rows)


def test_interleave_runs_the_tree_against_a_copy_of_itself(tmp_path):
    interleave = load_script("interleave", INTERLEAVE_SCRIPT)
    copy = tmp_path / "copy"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    before = {name: mod for name, mod in sys.modules.items() if name.startswith("affconn")}
    result = interleave.interleave(copy, ROOT, "verify_cli", 2, 3, tmp_path / "out")
    # the caller's own affconn modules are back in place
    assert before == {n: m for n, m in sys.modules.items() if n.startswith("affconn")}
    assert {key: result[key] for key in ("workload", "seed", "rounds")} == {
        "workload": "verify_cli", "seed": 3, "rounds": 2}
    for side in ("parent", "change"):
        stats = result["pass_s"][side]
        assert 0.0 < stats["q1"] <= stats["median"] <= stats["q3"]
    assert result["ratio"] == result["pass_s"]["change"]["median"] / (
        result["pass_s"]["parent"]["median"])
    assert result["change_won"] in (0, 1, 2)
    assert not list((tmp_path / "out").rglob("*.json"))  # the configs are removed
    wrong = SimpleNamespace(run=lambda: 1, check=lambda result: "wrong")
    with pytest.raises(interleave.FailedVerdict, match="wrong"):
        interleave.timed_pass([wrong])


@pytest.fixture
def no_lapack(monkeypatch):
    """``np.linalg.inv`` and ``eigvalsh`` raise: the SPD screen and the
    Gauss-Jordan inverse must leave every call of them out."""

    def refuse(*args, **kwargs):
        raise AssertionError("a per-matrix LAPACK call was made")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def test_the_checked_in_digest_configs_verify_clean(no_lapack):
    """The configs the same-bits check runs on (README, "Tests"): raw bumpy
    n = 2, 3, 4, a Ricci-operator case and case 17, each with a sampler so
    that ``--points`` applies.  No digest is pinned: a change that moves
    bits on purpose changes them.  No LAPACK call is made on the way."""
    assert [path.name for path in DIGEST_CONFIGS] == [
        "case17_sphere2.json", "case2_bumpy3.json",
        "raw_bumpy2.json", "raw_bumpy3.json", "raw_bumpy4.json",
    ]
    for path in DIGEST_CONFIGS:
        config = parse_config(path.read_text(encoding="utf-8"))
        assert config.points.shape[0] == 10, path.name
        code, report = cmd_verify(config)
        assert code == 0 and report["pass"], path.name


def test_every_traced_target_resolves_as_the_tracer_wraps_it():
    """Each ``TARGETS`` entry names a callable the tracer can replace; a
    method must be in its own class's ``__dict__``, not inherited, since
    ``Tracer.install`` reads and restores it there."""
    tracing = load_script("tracing", TRACING_MODULE)
    for mod, attr, layer, _bucket in tracing.TARGETS:
        assert layer in tracing.LAYERS
        owner, name = tracing._resolve(importlib.import_module(f"affconn.{mod}"), attr)
        if isinstance(owner, type):
            assert callable(owner.__dict__.get(name)), f"{mod}.{attr} is not the class's own"
        else:
            assert callable(getattr(owner, name, None)), f"{mod}.{attr} is missing"


def test_every_catalogue_preset_passes_the_benchmark_verdict():
    """The ``sweep`` workload runs each preset through ``verify_case`` and
    checks the result (passed, finite, the two prose deviations reported);
    a change to ``verify_case`` that breaks that verdict fails the benchmark."""
    workloads = load_script("workloads", WORKLOADS_MODULE)
    man = preset_manifold("bumpy", {"n": 2, "eps": 0.05, "seed": 11})
    rng = np.random.default_rng(5)
    for k, preset in enumerate(list_cases()):
        op = workloads.preset_op(man, preset, rng, 100 + k, main=True)
        assert op.check(op.run()) is None, preset.id


def test_no_benchmark_pass_calls_lapack(no_lapack, tmp_path):
    """One pass of each perfbench workload, verdicts included, with neither
    ``np.linalg.inv`` nor ``eigvalsh`` available."""
    workloads = load_script("workloads", WORKLOADS_MODULE)
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 104729, tmp_path)
        try:
            for op in workload.ops:
                assert op.check(op.run()) is None, (name, op.kind)
        finally:
            workload.close()


def test_a_fault_in_the_shared_inverse_fails_verify(monkeypatch):
    """Both paths invert the metric with ``fields._spd_inverse``; a 1e-9
    relative fault in it still fails the laws of a raw config."""
    inverse = levi_civita._spd_inverse

    def faulty(comp):
        return inverse(comp) * (1.0 + 1e-9)

    monkeypatch.setattr(levi_civita, "_spd_inverse", faulty)
    monkeypatch.setattr(curvature, "_spd_inverse", faulty)
    path = ROOT / "tools" / "digest_configs" / "raw_bumpy3.json"
    code, report = cmd_verify(parse_config(path.read_text(encoding="utf-8")))
    assert code == 1 and not report["pass"]
    failed = {row["check"] for row in report["checks"] if not row["pass"]}
    assert "torsion_law" in failed and "metricity_law" in failed
