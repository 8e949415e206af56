"""Acceptance gate: one test per published criterion.

Run with -v to get a single pass/fail line per criterion.  Residual
summaries are printed so a failing run shows how far off it was.
"""

import json
import time

import numpy as np
import pytest

from affconn import (
    ConnectionSpec,
    IdentityEndoField,
    PolynomialOneFormField,
    PolynomialScalarField,
    build_case,
    case_ids,
    compare_curvature,
    curvature_direct,
    curvature_formula,
    evaluate_spec,
    get_case,
    list_cases,
    nonmetricity_direct,
    nonmetricity_predicted,
    norm_residual,
    preset_manifold,
    random_spec,
    torsion_direct,
    torsion_predicted,
    verify_case,
)
from affconn.cli import main
from affconn.curvature import CORRUPTIBLE_TERMS
from affconn.fields import PolynomialExpr, random_polynomial
from affconn.levi_civita import PointGeometry

SWEEP_MANIFOLDS = (
    ("euclidean", {"n": 2}),
    ("euclidean", {"n": 3}),
    ("euclidean", {"n": 4}),
    ("sphere2", {"r": 1.0}),
    ("half_plane", {"k": 1.0}),
    ("bumpy", {"n": 2, "eps": 0.05, "seed": 1}),
    ("bumpy", {"n": 3, "eps": 0.05, "seed": 2}),
)


@pytest.fixture(scope="module")
def theorem_sweep():
    """100 seeded specs per preset manifold, 20 points each."""
    worst_torsion = 0.0
    worst_metricity = 0.0
    start = time.perf_counter()
    for mi, (name, params) in enumerate(SWEEP_MANIFOLDS):
        man = preset_manifold(name, params)
        for k in range(100):
            seed = 1000 * mi + k
            spec = random_spec(man.chart, seed)
            pts = man.chart.sample(20, seed + 500_000)
            frame = evaluate_spec(man.chart, man.metric, spec, pts)
            t = torsion_direct(frame.gamma_tilde)
            t_res = norm_residual(t, torsion_predicted(frame.u.comp, frame.phi.comp))
            q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
            q_res = norm_residual(
                q,
                nonmetricity_predicted(
                    frame.geo.g, frame.u1.comp, frame.u2.comp, frame.f1.value, frame.f2.value
                ),
            )
            worst_torsion = max(worst_torsion, t_res)
            worst_metricity = max(worst_metricity, q_res)
    elapsed = time.perf_counter() - start
    return {"torsion": worst_torsion, "metricity": worst_metricity, "elapsed": elapsed}


def test_criterion_01_torsion_law_sweep(theorem_sweep):
    print(
        f"\n  700 specs x 20 points: worst torsion residual "
        f"{theorem_sweep['torsion']:.3e}, elapsed {theorem_sweep['elapsed']:.2f}s"
    )
    assert theorem_sweep["torsion"] < 1e-10
    assert theorem_sweep["elapsed"] < 10.0


def test_criterion_02_metricity_law_sweep(theorem_sweep):
    print(f"\n  worst non-metricity residual {theorem_sweep['metricity']:.3e}")
    assert theorem_sweep["metricity"] < 1e-10


def test_criterion_03_zero_spec_degenerates_to_levi_civita():
    worst = 0.0
    for name, params in (
        ("sphere2", {"r": 1.0}),
        ("half_plane", {"k": 1.0}),
        ("bumpy", {"n": 2, "eps": 0.05, "seed": 1}),
        ("bumpy", {"n": 3, "eps": 0.05, "seed": 2}),
    ):
        man = preset_manifold(name, params)
        pts = man.chart.sample(20, 3)
        spec = ConnectionSpec.zero(man.chart.n)
        frame = evaluate_spec(man.chart, man.metric, spec, pts, order=2)
        checks = [
            norm_residual(frame.gamma_tilde, frame.geo.gamma),
            np.max(np.abs(torsion_direct(frame.gamma_tilde))),
            np.max(np.abs(nonmetricity_direct(frame.gamma_tilde, frame.geo.metric))),
        ]
        r_formula, _ = curvature_formula(frame)
        r_direct = curvature_direct(man.chart, man.metric, spec, pts)
        checks.append(norm_residual(r_formula, frame.geo.riemann_rows()))
        checks.append(norm_residual(r_direct, frame.geo.riemann_rows()))
        worst = max(worst, max(checks))
    print(f"\n  worst degeneration residual {worst:.3e}")
    assert worst < 1e-12


def test_criterion_04_case_catalogue_passes():
    man = preset_manifold("bumpy", {"n": 2, "eps": 0.05, "seed": 11})
    rng = np.random.default_rng(77)
    deviations_seen = set()
    worst = 0.0
    for preset in list_cases():
        bindings = {}
        for slot in sorted(preset.required):
            if slot == "phi":
                from affconn.fields import PolynomialEndoField

                bindings[slot] = PolynomialEndoField(
                    2, [[random_polynomial(2, rng, 2) for _ in range(2)] for _ in range(2)]
                )
            else:
                bindings[slot] = PolynomialOneFormField(
                    2, [random_polynomial(2, rng, 2) for _ in range(2)]
                )
        res = verify_case(preset.id, bindings, man, man.chart.sample(12, 500))
        assert res.passed, (preset.id, res.residuals)
        worst = max(worst, max(res.residuals.values()))
        assert res.residuals["reduced_connection"] < 1e-10
        if preset.prose_deviation:
            assert "metricity_stated" in res.reported  # reported, not asserted
            deviations_seen.add(preset.id)
    assert deviations_seen == {"6", "13"}
    print(f"\n  22 presets checked, worst asserted residual {worst:.3e}")


def test_criterion_05_double_recurrence_curvature_law():
    rng = np.random.default_rng(21)
    worst = {"curvature_reduced_vs_formula": 0.0, "curvature_reduced_vs_direct": 0.0, "s_skew_identity": 0.0}
    for name, params in (("euclidean", {"n": 2}), ("bumpy", {"n": 2, "eps": 0.05, "seed": 11})):
        man = preset_manifold(name, params)
        omega = PolynomialOneFormField(2, [random_polynomial(2, rng, 2) for _ in range(2)])
        res = verify_case(17, {"omega": omega}, man, man.chart.sample(50, 600))
        assert res.passed
        for key in worst:
            worst[key] = max(worst[key], res.residuals[key])
    print(
        f"\n  reduced-vs-formula {worst['curvature_reduced_vs_formula']:.3e}, "
        f"reduced-vs-direct {worst['curvature_reduced_vs_direct']:.3e}, "
        f"s-skew {worst['s_skew_identity']:.3e}"
    )
    assert worst["curvature_reduced_vs_formula"] < 1e-10
    assert worst["curvature_reduced_vs_direct"] < 1e-8
    assert worst["s_skew_identity"] < 1e-12


def test_criterion_06_hand_fixtures():
    man = preset_manifold("euclidean", {"n": 2})
    x1 = PolynomialExpr.coordinate(2, 0)
    x2 = PolynomialExpr.coordinate(2, 1)
    zero = PolynomialExpr.zero(2)

    # phi = Id, u = x^1 dx^2 at (1, 0)
    spec_a = ConnectionSpec.build(
        2, u=PolynomialOneFormField(2, [zero, x1]), phi=IdentityEndoField(2)
    )
    frame = evaluate_spec(man.chart, man.metric, spec_a, np.array([[1.0, 0.0]]))
    assert frame.h[0, 0, 0, 1] == 1.0    # H^1_{12}
    assert frame.h[0, 1, 0, 0] == -1.0   # H^2_{11}
    t = torsion_direct(frame.gamma_tilde)
    assert t[0, 0, 0, 1] == 1.0          # T~^1_{12}
    q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
    assert np.max(np.abs(q)) == 0.0      # metric connection

    # f1 = f2 = -1, u1 = u2 = x^2 dx^1 at (0, 1)
    omega = PolynomialOneFormField(2, [x2, zero])
    spec_b = ConnectionSpec.build(
        2,
        f1=PolynomialScalarField.constant(2, -1.0),
        f2=PolynomialScalarField.constant(2, -1.0),
        u1=omega,
        u2=omega,
    )
    frame_b = evaluate_spec(man.chart, man.metric, spec_b, np.array([[0.0, 1.0]]), order=2)
    r, _ = curvature_formula(frame_b)
    assert r[0, 0, 0, 1, 0] == -2.0      # R~^1_{121}
    assert r[0, 1, 0, 1, 0] == -1.0      # R~^2_{121}
    direct = curvature_direct(man.chart, man.metric, spec_b, np.array([[0.0, 1.0]]))
    assert norm_residual(r, direct) < 1e-14
    print("\n  both hand fixtures reproduced exactly")


def test_criterion_07_curvature_formula_matches_direct_oracle():
    worst = 0.0
    for n, seed in ((2, 31), (3, 32)):
        man = preset_manifold("bumpy", {"n": n, "eps": 0.05, "seed": 7})
        spec = random_spec(man.chart, seed)
        for f in (spec.f1, spec.f2, spec.u, spec.u1, spec.u2, spec.phi):
            assert not f.is_zero  # the criterion wants every field active
        pts = man.chart.sample(100, seed + 1)
        for rep in compare_curvature(man.chart, man.metric, spec, pts):
            worst = max(worst, rep.residual)
    print(f"\n  worst formula-vs-oracle residual over 200 points: {worst:.3e}")
    assert worst < 1e-8


def test_criterion_08_baseline_geometry():
    sphere = preset_manifold("sphere2", {"r": 1.0})
    geo = PointGeometry(sphere.chart, sphere.metric, sphere.chart.sample(40, 8), order=2)
    g, r = geo.g, geo.riemann_rows()
    rlow = np.einsum("plijk,plm->pmijk", r, g)
    den = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    k_sphere = rlow[:, 0, 0, 1, 1] / den
    q_gap = np.max(np.abs(geo.ricci.q - np.eye(2)))

    half = preset_manifold("half_plane", {"k": 1.0})
    geo_h = PointGeometry(half.chart, half.metric, half.chart.sample(40, 9), order=2)
    g, r = geo_h.g, geo_h.riemann_rows()
    rlow = np.einsum("plijk,plm->pmijk", r, g)
    den = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    k_half = rlow[:, 0, 0, 1, 1] / den

    print(
        f"\n  |K_sphere - 1| {np.max(np.abs(k_sphere - 1.0)):.3e}, "
        f"|K_halfplane + 1| {np.max(np.abs(k_half + 1.0)):.3e}, |Q - Id| {q_gap:.3e}"
    )
    assert np.max(np.abs(k_sphere - 1.0)) < 1e-9
    assert np.max(np.abs(k_half + 1.0)) < 1e-9
    assert q_gap < 1e-9


def _poly_json(expr):
    return {"terms": [{"c": c, "e": list(e)} for e, c in expr.terms.items()]}


@pytest.fixture(scope="module")
def generic_config_path(tmp_path_factory):
    # a three-dimensional generic spec: every corruptible term is live there
    man = preset_manifold("bumpy", {"n": 3, "eps": 0.05, "seed": 4})
    spec = random_spec(man.chart, 42)
    payload = {
        "manifold": {"preset": "bumpy", "n": 3, "eps": 0.05, "seed": 4},
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
        "points": {"count": 10, "seed": 9},
    }
    path = tmp_path_factory.mktemp("acceptance") / "generic.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_criterion_09_fault_injection_fails_loudly(generic_config_path, capsys):
    clean = main(["verify", "--config", generic_config_path])
    capsys.readouterr()
    assert clean == 0
    for term in CORRUPTIBLE_TERMS:
        code = main(["verify", "--config", generic_config_path, "--corrupt-term", term])
        out = capsys.readouterr().out
        assert code == 1, term
        report = json.loads(out)
        assert report["pass"] is False
        table = report["diagnosis"]["term_table"]
        assert table[0]["term"] == term, (term, table[0])
    print(f"\n  all {len(CORRUPTIBLE_TERMS)} injected faults detected and attributed")


def test_criterion_10_reports_are_deterministic(generic_config_path, capsys):
    main(["verify", "--config", generic_config_path])
    first = capsys.readouterr().out
    main(["verify", "--config", generic_config_path])
    second = capsys.readouterr().out
    assert first == second and first
    main(["tensors", "--config", generic_config_path])
    t_first = capsys.readouterr().out
    main(["tensors", "--config", generic_config_path])
    t_second = capsys.readouterr().out
    assert t_first == t_second
    print("\n  verify and tensors reports byte-identical across runs")
