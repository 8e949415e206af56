"""The memory and page faults of each step of one formula-vs-oracle comparison.

    PYTHONPATH=src python tools/step_peaks.py [--n N] PRESET M SEED

The steps are those of the compare operation in ``perfbench/workloads.py``
(``compare_op``), in its order: ``frame`` (``evaluate_spec``), ``formula``
(``curvature_formula``), ``oracle`` (``curvature_direct``), ``laws`` (that
module's own ``_laws``: the torsion and metricity tensors, direct and
predicted, and their residuals) and ``residual`` (``norm_residual`` of the
two curvatures).  Each step's result is kept until the end, as the
operation keeps it.  For each step this prints the ``tracemalloc`` MB
still held when it returns and the peak MB during it, both counted from
the start of the frame step, then the minor page faults and the system
CPU milliseconds of the step (``getrusage``).  One untraced run first
plans every jet, so the table shows a warm operation.  The faults are
counted on one more run, made after the traced run's results are
dropped, as perfbench's worker drops each operation's: memory the
allocator gave back to the system between operations is faulted in
again.  The kernel may count system time in scheduler ticks, so a short
step can read 0.

PRESET is a manifold preset; ``--n`` (default 4) sets the dimension of
``bumpy`` and ``euclidean``.  SEED draws the bumpy metric, a
``random_spec`` and M sampled points; these are not the benchmark's own
draws from its seed, only inputs of the same shape.
"""

from __future__ import annotations

import argparse
import importlib.util
import resource
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from affconn import (
    curvature_direct,
    curvature_formula,
    evaluate_spec,
    needed_order,
    norm_residual,
    preset_manifold,
    random_spec,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def manifold_params(preset: str, n: int, metric_seed: int) -> dict:
    if preset == "bumpy":
        return {"n": n, "eps": 0.05, "seed": metric_seed}
    if preset == "euclidean":
        return {"n": n}
    return {}


def compare_op(man, spec, pts, laws_of, step=lambda name: None):
    """The benchmark's compare operation, with its ``_laws`` as ``laws_of``,
    calling ``step(name)`` after each of its steps; every result stays alive
    until it returns."""
    chart, metric = man.chart, man.metric
    frame = evaluate_spec(chart, metric, spec, pts, order=needed_order(spec))
    step("frame")
    total, _ = curvature_formula(frame)
    step("formula")
    direct = curvature_direct(chart, metric, spec, pts)
    step("oracle")
    laws = laws_of(frame)
    step("laws")
    residual = norm_residual(total, direct)
    step("residual")
    return total, direct, laws, residual


def _usage() -> tuple:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_stime


def step_peaks(preset: str, m: int, seed: int, n: int = 4) -> list:
    """(step, held MB, peak MB, minor faults, system ms) for each step of one
    warm compare operation."""
    metric_seed, spec_seed, pts_seed = (
        int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=3))
    man = preset_manifold(preset, manifold_params(preset, n, metric_seed))
    spec = random_spec(man.chart, spec_seed)
    pts = man.chart.sample(m, pts_seed)
    laws_of = _load_workloads()._laws
    compare_op(man, spec, pts, laws_of)  # plans every jet
    rows = []

    def step(name):
        held, peak = tracemalloc.get_traced_memory()
        rows.append((name, held / 1e6, peak / 1e6))
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        compare_op(man, spec, pts, laws_of, step)
    finally:
        tracemalloc.stop()
    marks = [_usage()]
    compare_op(man, spec, pts, laws_of, lambda name: marks.append(_usage()))
    return [row + (now[0] - last[0], (now[1] - last[1]) * 1000.0)
            for row, last, now in zip(rows, marks, marks[1:])]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=4,
                        help="dimension of bumpy and euclidean (default 4)")
    parser.add_argument("preset")
    parser.add_argument("m", type=int)
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    print(f"{'step':<10}{'held_mb':>9}{'peak_mb':>9}{'minflt':>9}{'sys_ms':>9}")
    for name, now, peak, minflt, sys_ms in step_peaks(args.preset, args.m, args.seed, args.n):
        print(f"{name:<10}{now:>9.1f}{peak:>9.1f}{minflt:>9d}{sys_ms:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
