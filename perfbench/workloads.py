"""Inputs, operations and verdicts of the four benchmark workloads.

``build(name, seed, out_dir)`` makes every input of one workload from its
seed: manifolds, specs, points, case bindings and the ``affconn verify``
config file.  The library only ever sees these generated inputs.  The
result is a list of operations that make up one *pass*; the worker repeats
whole passes.

Every operation is split into ``run`` (the timed library work) and
``check`` (the untimed verdict).  A check never trusts a residual alone: it
also tests the compared tensors with ``np.isfinite``, because a NaN
residual collapses to 0.0 inside the library's ``max_abs``.

Besides its main work, every pass runs a small *control* slice on a bumpy
n=2 manifold: one random-spec law check, catalogue preset "2" (the order-3
Ricci path) and, except on ``verify_cli`` whose main work is verify calls,
ten clean and ten ``--corrupt-term h_f1`` ``affconn verify`` calls.  The
control slice gives every end-to-end metric (the verify latencies included)
and every layer a measured value on every workload; the main work decides
which layer dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from affconn import (
    PolynomialEndoField,
    PolynomialOneFormField,
    curvature_direct,
    curvature_formula,
    evaluate_spec,
    get_case,
    list_cases,
    needed_order,
    nonmetricity_direct,
    nonmetricity_predicted,
    norm_residual,
    preset_manifold,
    random_polynomial,
    random_spec,
    torsion_direct,
    torsion_predicted,
    verify_case,
)
from affconn.cli import main as cli_main
from affconn.curvature import CORRUPTIBLE_TERMS

WORKLOADS = ("sweep", "oracle_n4", "wide_batch", "verify_cli")

LAW_TOL = 1e-10
CURVATURE_TOL = 1e-8
# The two catalogue entries whose stated recurrence coefficient deviates.
PROSE_DEVIATIONS = frozenset({"6", "13"})

SWEEP_POINTS = 20
CATALOGUE_POINTS = 12
VERIFY_POINTS = 10
# The control slice: a bumpy n=2 manifold, catalogue preset 2 (the order-3
# Ricci path) and verify calls faulted in "h_f1", a term that is live at
# n = 2 ("f1_sq", for one, vanishes identically there).
CONTROL_N = 2
CONTROL_CASE = "2"
CONTROL_TERM = "h_f1"
CONTROL_VERIFY_CALLS = 10  # of each kind, clean and faulted, per pass

# The preset manifolds of the acceptance theorem sweep.
SWEEP_MANIFOLDS = (
    ("euclidean", {"n": 2}),
    ("euclidean", {"n": 3}),
    ("euclidean", {"n": 4}),
    ("sphere2", {"r": 1.0}),
    ("half_plane", {"k": 1.0}),
    ("bumpy", {"n": 2, "eps": 0.05, "seed": 1}),
    ("bumpy", {"n": 3, "eps": 0.05, "seed": 2}),
)
SPECS_PER_MANIFOLD = 100


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns a failure reason
    or None.  ``main`` ops feed ``points_per_s`` and ``op_p50/p98_ms``."""

    kind: str
    main: bool
    points: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    rank5_bytes: int = 0  # largest (m, n, n, n, n) float64 curvature it builds


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    config_path: Path

    def close(self):
        self.config_path.unlink(missing_ok=True)


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _laws(frame):
    t = torsion_direct(frame.gamma_tilde)
    t_law = torsion_predicted(frame.u.comp, frame.phi.comp)
    q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
    q_law = nonmetricity_predicted(
        frame.geo.g, frame.u1.comp, frame.u2.comp, frame.f1.value, frame.f2.value
    )
    return (t, t_law, q, q_law), norm_residual(t, t_law), norm_residual(q, q_law)


def spec_check_op(man, spec_seed: int, pts_seed: int, main: bool) -> Op:
    """Acceptance sweep step: build a random spec, check torsion and
    metricity laws at 20 points (order 1)."""
    chart, metric = man.chart, man.metric
    pts = chart.sample(SWEEP_POINTS, pts_seed)

    def run():
        spec = random_spec(chart, spec_seed)
        return _laws(evaluate_spec(chart, metric, spec, pts))

    def check(result):
        tensors, t_res, q_res = result
        if not _finite(*tensors):
            return f"{man.name}: non-finite law tensor"
        if not t_res < LAW_TOL:
            return f"{man.name}: torsion residual {t_res:.3e}"
        if not q_res < LAW_TOL:
            return f"{man.name}: metricity residual {q_res:.3e}"
        return None

    return Op("spec_check", main, SWEEP_POINTS, run, check)


def _case_bindings(preset, n: int, rng) -> dict:
    bindings = {}
    for slot in sorted(preset.required):
        if slot == "phi":
            bindings[slot] = PolynomialEndoField(
                n, [[random_polynomial(n, rng, 2) for _ in range(n)] for _ in range(n)]
            )
        else:
            bindings[slot] = PolynomialOneFormField(
                n, [random_polynomial(n, rng, 2) for _ in range(n)]
            )
    return bindings


def preset_op(man, preset, rng, pts_seed: int, main: bool) -> Op:
    """One catalogue preset through ``verify_case``."""
    bindings = _case_bindings(preset, man.chart.n, rng)
    pts = man.chart.sample(CATALOGUE_POINTS, pts_seed)

    def run():
        return verify_case(preset.id, bindings, man, pts)

    def check(res):
        values = list(res.residuals.values()) + list(res.reported.values())
        if not all(math.isfinite(v) for v in values):
            return f"case {preset.id}: non-finite residual"
        if not res.passed:
            return f"case {preset.id}: failed {res.residuals}"
        if ("metricity_stated" in res.reported) != (preset.id in PROSE_DEVIATIONS):
            return f"case {preset.id}: prose-deviation set is not {sorted(PROSE_DEVIATIONS)}"
        return None

    n = man.chart.n
    curved = preset.phi_mode == "ricci" or preset.id == "17"
    rank5 = CATALOGUE_POINTS * n**4 * 8 if curved else 0
    return Op("preset", main, CATALOGUE_POINTS, run, check, rank5)


def compare_op(man, spec, pts) -> Op:
    """One evaluate_spec + curvature_formula + curvature_direct comparison,
    plus the torsion and metricity laws on the same frame."""
    chart, metric = man.chart, man.metric
    m, n = pts.shape

    def run():
        frame = evaluate_spec(chart, metric, spec, pts, order=needed_order(spec))
        r_formula, _ = curvature_formula(frame)
        r_direct = curvature_direct(chart, metric, spec, pts)
        law_tensors, t_res, q_res = _laws(frame)
        r_res = norm_residual(r_formula, r_direct)
        return (r_formula, r_direct) + law_tensors, r_res, t_res, q_res

    def check(result):
        tensors, r_res, t_res, q_res = result
        if not _finite(*tensors):
            return f"{man.name}: non-finite curvature or law tensor"
        if not r_res <= CURVATURE_TOL:
            return f"{man.name}: curvature residual {r_res:.3e}"
        if not t_res <= LAW_TOL:
            return f"{man.name}: torsion residual {t_res:.3e}"
        if not q_res <= LAW_TOL:
            return f"{man.name}: metricity residual {q_res:.3e}"
        return None

    return Op("compare", True, m, run, check, m * n**4 * 8)


def _poly_json(expr) -> dict:
    return {"terms": [{"c": c, "e": list(e)} for e, c in expr.terms.items()]}


def write_verify_config(path: Path, manifold_json: dict, spec_seed: int, pts_seed: int):
    """A raw six-field config in the shape of acceptance criterion 9."""
    params = dict(manifold_json)
    man = preset_manifold(params.pop("preset"), params)
    spec = random_spec(man.chart, spec_seed)
    payload = {
        "manifold": manifold_json,
        "connection": {
            "raw": {
                "f1": _poly_json(spec.f1.expr),
                "f2": _poly_json(spec.f2.expr),
                "u": [_poly_json(c) for c in spec.u.comps],
                "u1": [_poly_json(c) for c in spec.u1.comps],
                "u2": [_poly_json(c) for c in spec.u2.comps],
                "phi": [[_poly_json(e) for e in row] for row in spec.phi.entries],
            }
        },
        "points": {"count": VERIFY_POINTS, "seed": pts_seed},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def verify_op(path: Path, term: str | None, n: int, reference: dict, main: bool) -> Op:
    """In-process ``affconn verify``; ``term`` injects a fault.

    A clean call must exit 0 with a report byte-identical to the run's first
    clean report; a corrupted call must exit 1 and rank ``term`` first in
    the diagnosis.
    """
    argv = ["verify", "--config", str(path)]
    if term is not None:
        argv += ["--corrupt-term", term]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    def check(result):
        code, text = result
        if term is None:
            if code != 0:
                return f"clean verify exited {code}"
            first = reference.setdefault("clean_report", text)
            if text != first:
                return "clean verify reports differ"
            return None
        if code != 1:
            return f"verify --corrupt-term {term} exited {code}"
        table = json.loads(text)["diagnosis"]["term_table"]
        if not table or table[0]["term"] != term:
            top = table[0]["term"] if table else None
            return f"verify --corrupt-term {term}: diagnosis ranks {top!r} first"
        return None

    kind = "verify_pass" if term is None else "verify_fail"
    return Op(kind, main, VERIFY_POINTS, run, check, VERIFY_POINTS * n**4 * 8)


def _bumpy(n: int, metric_seed: int) -> dict:
    return {"n": n, "eps": 0.05, "seed": metric_seed}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Generate one workload's inputs from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / f"verify-{name}-{seed}.json"
    reference: dict = {}
    (metric_seed,) = _seeds(rng, 1)
    verify_n = 3 if name == "verify_cli" else CONTROL_N
    write_verify_config(
        config, {"preset": "bumpy", **_bumpy(verify_n, metric_seed)}, *_seeds(rng, 2)
    )

    main: list[Op] = []
    if name == "sweep":
        for man_name, params in SWEEP_MANIFOLDS:
            man = preset_manifold(man_name, params)
            for _ in range(SPECS_PER_MANIFOLD):
                spec_seed, pts_seed = _seeds(rng, 2)
                main.append(spec_check_op(man, spec_seed, pts_seed, main=True))
        catalogue = preset_manifold("bumpy", _bumpy(2, 11))
        for preset in list_cases():
            (pts_seed,) = _seeds(rng, 1)
            main.append(preset_op(catalogue, preset, rng, pts_seed, main=True))
    elif name == "verify_cli":
        main += [verify_op(config, None, 3, reference, main=True) for _ in range(10)]
        main += [verify_op(config, t, 3, reference, main=True) for t in CORRUPTIBLE_TERMS]
    else:
        if name == "oracle_n4":
            batches = [(preset_manifold("bumpy", _bumpy(4, metric_seed)), 2000)]
        else:
            batches = [(preset_manifold("sphere2", {"r": 1.0}), 20000),
                       (preset_manifold("half_plane", {"k": 1.0}), 20000)]
        for man, m in batches:
            spec_seed, pts_seed = _seeds(rng, 2)
            spec = random_spec(man.chart, spec_seed)
            main.append(compare_op(man, spec, man.chart.sample(m, pts_seed)))

    control_man = preset_manifold("bumpy", _bumpy(CONTROL_N, metric_seed))
    spec_seed, pts_seed, case_pts = _seeds(rng, 3)
    control = [
        spec_check_op(control_man, spec_seed, pts_seed, main=False),
        preset_op(control_man, get_case(CONTROL_CASE), rng, case_pts, main=False),
    ]
    if name != "verify_cli":
        for _ in range(CONTROL_VERIFY_CALLS):
            control += [verify_op(config, term, CONTROL_N, reference, main=False)
                        for term in (None, CONTROL_TERM)]
    # Spread the control slice evenly through the pass, so that its short
    # calls sample many moments of a run instead of one.
    slots = [k * len(main) // len(control) for k in range(len(control))]
    ops: list[Op] = []
    for i, op in enumerate(main):
        ops += [c for c, slot in zip(control, slots) if slot == i]
        ops.append(op)
    return Workload(name, seed, ops, config)
