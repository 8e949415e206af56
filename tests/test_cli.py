"""Config parsing, report rendering, command dispatch, exit codes."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn import CaseUnknown, DimensionMismatch, SchemaError, fields
from affconn import cases, cli, connection, curvature
from affconn.cli import (
    cmd_ablate,
    cmd_cases,
    cmd_tensors,
    cmd_verify,
    main,
    parse_config,
    render_json,
    render_pretty,
)
from affconn.curvature import CORRUPTIBLE_TERMS
from conftest import RAW_BUMPY3

X1 = {"terms": [{"c": 1.0, "e": [1, 0]}]}
X2 = {"terms": [{"c": 1.0, "e": [0, 1]}]}

MINIMAL = {
    "manifold": {"preset": "euclidean", "n": 2},
    "connection": {"case": 12, "bindings": {"u": [0, X1]}},
    "points": [[1.0, 0.0]],
}

DOUBLE_RECURRENCE = {
    "manifold": {"preset": "euclidean", "n": 2},
    "connection": {"case": 17, "bindings": {"omega": [X2, 0]}},
    "points": [[0.0, 1.0]],
}


RAW_BUMPY2 = {
    "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
    "connection": {
        "raw": {
            "f1": X1, "f2": 0.25, "u": [0, X1], "u1": [X2, 0],
            "u2": [X1, X2], "phi": [[X1, 1.0], [0, X2]],
        }
    },
    "points": {"count": 10, "seed": 9},
}

RICCI_CASE = {
    "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
    "connection": {"case": 2, "bindings": {"u": [X1, X2]}},
    "points": {"count": 6, "seed": 3},
}

RAW_EUCLIDEAN2 = {
    "manifold": {"preset": "euclidean", "n": 2},
    "connection": {"raw": {"f1": 0.5, "u": [X2, 0], "u2": [0, X1], "phi": [[0, X1], [X2, 1.0]]}},
    "points": [[0.5, -0.25], [1.0, 1.0]],
    "tolerances": {"curvature": 1e-8},
}


def config_file(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing

def test_parse_minimal_config():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.manifold.chart.n == 2
    assert cfg.case_id == "12"
    assert cfg.spec.n == 2
    assert np.array_equal(cfg.points, [[1.0, 0.0]])
    assert cfg.output == "json"
    assert cfg.tolerances["torsion"] == 1e-10


def test_parse_rejects_case_and_raw_together():
    bad = dict(MINIMAL, connection={"case": 12, "raw": {}, "bindings": {}})
    with pytest.raises(SchemaError):
        parse_config(json.dumps(bad))
    with pytest.raises(SchemaError):
        parse_config(json.dumps(dict(MINIMAL, connection={})))


def test_parse_reports_component_count_as_dimension_mismatch():
    bad = dict(MINIMAL, connection={"case": 12, "bindings": {"u": [0, X1, 0]}})
    with pytest.raises(DimensionMismatch):
        parse_config(json.dumps(bad))


def test_parse_requires_sampler_seed():
    bad = dict(MINIMAL, points={"count": 5})
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(bad))
    assert "seed" in str(exc.value)


def test_parse_rejects_unknown_keys_with_paths():
    bad = dict(MINIMAL, extra=1)
    with pytest.raises(SchemaError):
        parse_config(json.dumps(bad))
    bad = dict(MINIMAL, manifold={"preset": "euclidean", "n": 2, "wat": 3})
    with pytest.raises((SchemaError, Exception)):
        parse_config(json.dumps(bad))
    bad = dict(MINIMAL, tolerances={"nope": 1e-9})
    with pytest.raises(SchemaError):
        parse_config(json.dumps(bad))


def test_parse_unknown_case_id():
    bad = dict(MINIMAL, connection={"case": 99, "bindings": {"u": [0, X1]}})
    with pytest.raises(CaseUnknown):
        parse_config(json.dumps(bad))


def test_parse_raw_connection_with_defaults():
    raw = dict(MINIMAL, connection={"raw": {"u": [0, X1], "phi": [[0, 0], [X2, 0]]}})
    cfg = parse_config(json.dumps(raw))
    assert cfg.case_id is None
    assert cfg.spec.f1.is_zero and cfg.spec.u2.is_zero
    assert not cfg.spec.phi.is_zero


def test_parse_inline_metric_manifold():
    payload = {
        "manifold": {
            "chart": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "metric": [[1.0, 0], [0, 1.0]],
        },
        "connection": {"case": 12, "bindings": {"u": [0, X1]}},
        "points": [[0.5, 0.0]],
    }
    cfg = parse_config(json.dumps(payload))
    assert cfg.manifold.chart.n == 2
    asym = dict(payload)
    asym["manifold"] = dict(payload["manifold"], metric=[[1.0, X1], [0, 1.0]])
    with pytest.raises(Exception):
        parse_config(json.dumps(asym))


def test_inline_metric_errors_name_the_metric(tmp_path, capsys):
    payload = dict(MINIMAL, manifold={"chart": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                                      "metric": [[1, 2], [0, 1]]})
    code, out, err = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 2 and out == ""
    assert err == "error: manifold.metric: metric entries (0,1) and (1,0) differ\n"


def test_an_unknown_case_names_connection_case(tmp_path, capsys):
    payload = dict(RICCI_CASE, connection={"case": "99", "bindings": {"u": [X1, X2]}})
    code, out, err = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 2 and out == ""
    assert err.startswith("error: connection.case: no case preset '99'; known ids are 1, ")


def test_a_missing_binding_names_connection_bindings(tmp_path, capsys):
    payload = dict(RICCI_CASE, connection={"case": "1", "bindings": {"u": [X1, X2]}})
    code, out, err = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 2 and out == ""
    assert err.startswith("error: connection.bindings: case 1 needs bindings ['phi']")


def test_an_extra_binding_names_connection_bindings(tmp_path, capsys):
    bindings = {"u": [X1, X2], "omega": [X2, 0]}
    payload = dict(RICCI_CASE, connection={"case": "2", "bindings": bindings})
    code, out, err = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 2 and out == ""
    assert err.startswith("error: connection.bindings: case 2 got unexpected bindings ['omega']")


@pytest.mark.parametrize("command", ["verify", "tensors", "ablate"])
def test_a_metric_that_is_not_positive_definite_names_the_point(tmp_path, capsys, command):
    # g_22 = x^1 is negative at the second point only
    payload = dict(MINIMAL, manifold={"chart": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                                      "metric": [[1.0, 0], [0, X1]]},
                   points=[[0.5, 0.0], [-0.5, 0.0]])
    code, out, err = run_main(capsys, command, "--config", config_file(tmp_path, payload))
    assert code == 2 and out == ""
    assert err == "error: points[1]: manifold.metric: eigenvalues [-0.5, 1.0] fail the SPD check\n"


def test_parse_sampler_points():
    cfg = parse_config(json.dumps(dict(MINIMAL, points={"count": 5, "seed": 3})))
    assert cfg.points.shape == (5, 2)
    again = parse_config(json.dumps(dict(MINIMAL, points={"count": 5, "seed": 3})))
    assert np.array_equal(cfg.points, again.points)


# -------------------------------------------------------------- rendering

def test_floats_render_with_roundtrip_precision():
    out = render_json({"x": 0.1, "y": 1.0, "z": 1.0 / 3.0})
    parsed = json.loads(out)
    assert parsed["x"] == 0.1 and parsed["z"] == 1.0 / 3.0
    assert '"y":1.0' in out  # integral floats keep a decimal point


def test_render_rejects_non_finite_values():
    with pytest.raises(ValueError):
        render_json({"x": float("nan")})
    with pytest.raises(ValueError):
        render_json({"x": float("inf")})


def test_render_sorts_keys_for_byte_stability():
    a = render_json({"b": 1.5, "a": [1.0, 2.0]})
    b = render_json({"a": [1.0, 2.0], "b": 1.5})
    assert a == b


def test_render_handles_numpy_scalars_and_arrays():
    out = json.loads(render_json({"v": np.float64(0.25), "m": np.eye(2), "n": np.int64(3)}))
    assert out["v"] == 0.25 and out["m"] == [[1.0, 0.0], [0.0, 1.0]] and out["n"] == 3


def test_pretty_rendering_is_text(capsys):
    _, report = cmd_verify(parse_config(json.dumps(MINIMAL)))
    text = render_pretty(report)
    assert "torsion_law" in text and "{" not in text.splitlines()[0]


# ----------------------------------------------------------------- verify

def test_verify_zero_spec_is_exactly_zero(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "euclidean", "n": 2},
        "connection": {"raw": {}},
        "points": [[0.0, 0.0], [0.5, -0.5]],
    }
    code, out, err = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["pass"] is True
    assert all(c["residual"] == 0.0 for c in report["checks"])


def test_verify_identity_phi_fixture(tmp_path, capsys):
    code, out, _ = run_main(capsys, "verify", "--config", config_file(tmp_path, MINIMAL))
    assert code == 0
    report = json.loads(out)
    names = [c["check"] for c in report["checks"]]
    assert names == [
        "torsion_law",
        "metricity_law",
        "transpose_torsion_law",
        "curvature_antisymmetry",
        "curvature_formula_vs_direct",
        "reduced_connection",
        "metricity_stated",
    ]
    assert report["pass"] is True
    assert "conventions" in report
    assert "reported" not in report


GENERAL_CHECKS = [
    "torsion_law", "metricity_law", "transpose_torsion_law",
    "curvature_antisymmetry", "curvature_formula_vs_direct",
]


# The tolerance key each preset row gates at, and distinct values to tell
# the keys apart in a report.
CASE_ROW_KEYS = {
    "reduced_connection": "torsion", "metricity_stated": "metricity",
    "torsion_zero": "torsion", "curvature_reduced_vs_formula": "torsion",
    "curvature_reduced_vs_direct": "curvature", "s_skew_identity": "torsion",
}
KEYED_TOLERANCES = {"torsion": 1e-10, "metricity": 2e-10, "curvature": 3e-8}


def case_config(preset, n=2, count=6):
    """A case config on a bumpy metric with every binding the preset needs."""
    poly = {"terms": [{"c": 0.5, "e": [1] + [0] * (n - 1)}, {"c": -0.25, "e": [0] * n}]}
    form = [poly] + [float(i) / n for i in range(1, n)]
    bindings = {name: [form] * n if name == "phi" else form for name in preset.required}
    return {
        "manifold": {"preset": "bumpy", "n": n, "eps": 0.05, "seed": 4},
        "connection": {"case": preset.id, "bindings": bindings},
        "points": {"count": count, "seed": 7},
    }


@pytest.mark.parametrize("preset", cases.list_cases(), ids=lambda p: p.id)
def test_case_config_verify_adds_the_presets_listed_checks(tmp_path, capsys, preset):
    payload = dict(case_config(preset), tolerances=KEYED_TOLERANCES)
    code, out, _ = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 0
    report = json.loads(out)
    suffix = " (reported, prose deviates)"
    gated = [name for name in preset.checks if not name.endswith(suffix)]
    assert [c["check"] for c in report["checks"]] == GENERAL_CHECKS + gated
    reported = [name.removesuffix(suffix) for name in preset.checks if name.endswith(suffix)]
    if preset.prose_deviation is None:
        assert not reported and "reported" not in report
    else:
        assert reported == ["metricity_stated"]
        assert [r["check"] for r in report["reported"]] == reported
        assert report["reported"][0]["residual"] > 0.2  # the factor of two
    for check in report["checks"][len(GENERAL_CHECKS):]:
        assert check["tolerance"] == KEYED_TOLERANCES[CASE_ROW_KEYS[check["check"]]]


def test_raw_config_verify_runs_only_the_general_checks(tmp_path, capsys):
    for payload in (RAW_BUMPY2, RAW_EUCLIDEAN2):
        code, out, _ = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
        report = json.loads(out)
        assert code == 0 and [c["check"] for c in report["checks"]] == GENERAL_CHECKS
        assert "reported" not in report


def scaled(module, name, factor):
    """``module.name`` with its result multiplied by ``factor``."""
    original = getattr(module, name)
    return lambda *args: factor * original(*args)


@pytest.mark.parametrize(
    "case_id, target, factor, failing",
    [
        ("12", "_reduced_gamma", 1.5, ["reduced_connection"]),
        ("17", "_stated_metricity", 1.01, ["metricity_stated"]),
        ("17", "cov_deriv_oneform", 1.01,
         ["curvature_reduced_vs_formula", "curvature_reduced_vs_direct"]),
    ],
)
def test_case_config_verify_fails_a_wrong_reduced_law_by_name(
    tmp_path, capsys, monkeypatch, case_id, target, factor, failing
):
    # the reduced laws are coded apart from the general construction, so a
    # mistake in one fails only the preset's own checks
    path = config_file(tmp_path, case_config(cases.get_case(case_id), n=3, count=10))
    assert run_main(capsys, "verify", "--config", path)[0] == 0
    monkeypatch.setattr(cases, target, scaled(cases, target, factor))
    code, out, _ = run_main(capsys, "verify", "--config", path)
    assert code == 1
    report = json.loads(out)
    failed = [c["check"] for c in report["checks"] if not c["pass"]]
    assert set(failing) <= set(failed)
    assert not set(failed) & set(GENERAL_CHECKS)
    assert "diagnosis" not in report  # diagnose explains only the curvature comparison


def test_verify_random_sweep_from_sampler(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
        "connection": {
            "raw": {
                "f1": X1,
                "f2": 0.25,
                "u": [0, X1],
                "u1": [X2, 0],
                "u2": [X1, X2],
                "phi": [[X1, 1.0], [0, X2]],
            }
        },
        "points": {"count": 12, "seed": 9},
    }
    code, out, _ = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_tolerance_flag_tightens_every_check(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    code, out, _ = run_main(capsys, "verify", "--config", path, "--tolerance", "1e-3")
    report = json.loads(out)
    assert all(c["tolerance"] == 1e-3 for c in report["checks"])
    assert code == 0


def test_verify_corruption_fails_with_diagnosis(tmp_path, capsys):
    path = config_file(tmp_path, RAW_BUMPY2)
    code, out, _ = run_main(capsys, "verify", "--config", path, "--corrupt-term", "f2_block")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["corrupt_term"] == "f2_block"
    assert report["diagnosis"]["term_table"][0]["term"] == "f2_block"


def test_failing_verify_plans_each_field_once(tmp_path, capsys, monkeypatch):
    # A failing verify evaluates the same fields over and over (diagnose
    # reruns both curvature paths): each (field, order) is planned once, and
    # its one evaluation context applies each plan once, to its one batch.
    # Each monomial basis is tabled once for the batch, and plans over one
    # basis (f1 and u here, u2 and phi) share its table.
    planned, plans, applied, unique_calls, tables = [], [], [], [], []
    planning = [False]
    unique, monomials = np.unique, fields._Lowering.monomials

    class RecordedPlan(fields._JetPlan):
        def __init__(self, n, comps, shape, order):
            planned.append((comps, order))  # a field's own component tuple
            plans.append(self)
            planning[0] = True
            try:
                super().__init__(n, comps, shape, order)
            finally:
                planning[0] = False

        def apply(self, pts):
            applied.append(self)
            return super().apply(pts)

    def recorded_unique(*args, **kwargs):
        unique_calls.append(planning[0])
        return unique(*args, **kwargs)

    def recorded_monomials(low, pts):
        tables.append((low.key, pts.tobytes()))
        return monomials(low, pts)

    monkeypatch.setattr(fields, "_JetPlan", RecordedPlan)
    monkeypatch.setattr(np, "unique", recorded_unique)
    monkeypatch.setattr(fields._Lowering, "monomials", recorded_monomials)
    fields._lowering.cache_clear()  # so that planning builds the lowerings
    path = config_file(tmp_path, RAW_BUMPY2)
    code, _, _ = run_main(capsys, "verify", "--config", path, "--corrupt-term", "h_f1")
    assert code == 1
    keys = [(id(comps), order) for comps, order in planned]
    assert len(keys) == len(set(keys))  # planned at most once per field and order
    assert sorted(map(id, applied)) == sorted(map(id, plans))  # each applied once
    assert unique_calls and all(unique_calls)  # np.unique only while planning
    assert len(tables) == len(set(tables))  # one table per (basis, batch)
    assert len(tables) < sum(plan.coeffs is not None for plan in plans)


RAW_RUNS = (
    [("verify",)]
    + [("verify", "--corrupt-term", term) for term in CORRUPTIBLE_TERMS]
    + [("ablate",), ("tensors",)]
)
COMMAND_RUNS = (
    [(RAW_BUMPY2, argv) for argv in RAW_RUNS]
    + [(RICCI_CASE, (command,)) for command in ("verify", "ablate", "tensors")]
    + [(RAW_BUMPY3, argv) for argv in RAW_RUNS]
)


@pytest.mark.parametrize("payload, argv", COMMAND_RUNS)
def test_reports_are_byte_identical_without_the_evaluation_context(
    tmp_path, capsys, monkeypatch, payload, argv
):
    # Sharing values within a run must change no bit of any report.
    args = (argv[0], "--config", config_file(tmp_path, payload), *argv[1:])
    shared = run_main(capsys, *args)
    for module in (curvature, cases, cli):
        monkeypatch.setattr(module, "_evaluation_context", contextlib.nullcontext)
    assert run_main(capsys, *args) == shared


def weakrefs(value) -> list:
    """Weak references to ``value`` and to every array and jet it holds."""
    if isinstance(value, tuple):
        return [ref for item in value for ref in weakrefs(item)]
    if isinstance(value, np.ndarray):
        return [weakref.ref(value)]
    refs = [weakref.ref(value)]
    if dataclasses.is_dataclass(value):
        refs += [ref for item in vars(value).values() if item is not None
                 for ref in weakrefs(item)]
    return refs


@pytest.mark.parametrize("command", [
    lambda config: cmd_verify(config, corrupt_term="h_f1"), cmd_ablate, cmd_tensors,
])
def test_no_cached_value_outlives_its_command(monkeypatch, command):
    memo, stored = fields._memo, []

    def recording(kind, owners, pts, order, compute):
        value = memo(kind, owners, pts, order, compute)
        if fields._MEMO.get() is not None:
            stored.extend(weakrefs(value))
        return value

    for module in (fields, connection, curvature, cases):
        monkeypatch.setattr(module, "_memo", recording)
    result = command(parse_config(json.dumps(RAW_BUMPY2)))
    assert stored and fields._MEMO.get() is None
    del result
    gc.collect()
    assert [ref() for ref in stored if ref() is not None] == []


def test_verify_unknown_corrupt_term_is_usage_error(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    code, out, err = run_main(capsys, "verify", "--config", path, "--corrupt-term", "wat")
    assert code == 2 and out == ""
    assert err.startswith("error: --corrupt-term: unknown corruptible term 'wat'; choose one of ")


# ----------------------------------------------------------------- tensors

def test_tensors_zero_spec_keeps_levi_civita(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "euclidean", "n": 2},
        "connection": {"raw": {}},
        "points": [[0.2, 0.4]],
    }
    code, out, _ = run_main(capsys, "tensors", "--config", config_file(tmp_path, payload))
    assert code == 0
    entry = json.loads(out)["tensors"][0]
    assert entry["gamma_tilde"] == entry["gamma"]
    assert np.max(np.abs(entry["gamma_tilde"])) == 0.0


def test_tensors_curvature_values_double_recurrence(tmp_path, capsys):
    code, out, _ = run_main(capsys, "tensors", "--config", config_file(tmp_path, DOUBLE_RECURRENCE))
    assert code == 0
    entry = json.loads(out)["tensors"][0]
    r = entry["r_formula"]
    assert r[0][0][1][0] == -2.0
    assert r[1][0][1][0] == -1.0
    assert entry["r_direct"][0][0][1][0] == -2.0
    assert entry["nabla_g"][0][0][0] == -4.0
    assert entry["nabla_g"][0][1][1] == -2.0


def test_tensors_sphere_equator_symbols(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "sphere2", "r": 1.0},
        "connection": {"raw": {}},
        "points": [[np.pi / 2, 1.0]],
    }
    code, out, _ = run_main(capsys, "tensors", "--config", config_file(tmp_path, payload))
    entry = json.loads(out)["tensors"][0]
    assert abs(entry["gamma"][0][1][1]) < 1e-12  # -sin(t)cos(t) vanishes at the equator
    assert code == 0


# ------------------------------------------------------------------- cases

def test_cases_listing(capsys):
    code, out, _ = run_main(capsys, "cases")
    assert code == 0
    report = json.loads(out)
    assert report["primary_count"] == 17
    assert report["total_count"] == 22
    by_id = {e["id"]: e for e in report["cases"]}
    assert by_id["16"]["f1"] == 0.5 and by_id["16"]["f2"] == 0.0
    assert "curved" in by_id["2"]["manifold"]
    assert by_id["12"]["required_bindings"] == ["u"]
    assert by_id["13b"]["parent"] == "13"
    assert by_id["6"]["prose_deviation"]


# ------------------------------------------------------------------ ablate

def test_ablate_zero_spec_has_empty_table(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "euclidean", "n": 2},
        "connection": {"raw": {}},
        "points": [[0.1, 0.1]],
    }
    code, out, _ = run_main(capsys, "ablate", "--config", config_file(tmp_path, payload))
    assert code == 0
    report = json.loads(out)
    assert report["groups"] == []
    assert report["pass"] is True


def test_ablate_identity_phi_case_activates_two_groups(tmp_path, capsys):
    code, out, _ = run_main(capsys, "ablate", "--config", config_file(tmp_path, MINIMAL))
    assert code == 0
    report = json.loads(out)
    assert sorted(g["term"] for g in report["groups"]) == ["a_phi1", "alpha_phi1"]


def test_ablate_generic_spec_reports_all_groups(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
        "connection": {
            "raw": {
                "f1": X1, "f2": X2, "u": [0, X1], "u1": [X2, 0],
                "u2": [X1, X2], "phi": [[X1, 1.0], [0, X2]],
            }
        },
        "points": {"count": 8, "seed": 5},
    }
    code, out, _ = run_main(capsys, "ablate", "--config", config_file(tmp_path, payload))
    assert code == 0
    report = json.loads(out)
    assert len(report["groups"]) == 14
    assert report["minimal_failing_bindings"] == []


# -------------------------------------------------------------- exit codes

def test_missing_config_file_is_usage_error(capsys):
    code, out, err = run_main(capsys, "verify", "--config", "/nonexistent.json")
    assert code == 2 and out == "" and "error:" in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run_main(capsys, "verify", "--config", str(path))
    assert code == 2 and "error:" in err


def test_schema_violation_is_usage_error(tmp_path, capsys):
    bad = dict(MINIMAL, connection={"case": 12, "bindings": {"u": [0, X1, 0]}})
    code, out, err = run_main(capsys, "verify", "--config", config_file(tmp_path, bad))
    assert code == 2 and "error:" in err


def test_infinite_tolerance_cannot_switch_a_check_off(tmp_path, capsys):
    payload = dict(RAW_BUMPY2, tolerances={"curvature": float("inf")})
    path = config_file(tmp_path, payload)
    code, out, err = run_main(capsys, "verify", "--config", path, "--corrupt-term", "alpha_phi1")
    assert code == 2 and out == ""
    assert "tolerances.curvature: expected a finite number" in err


@pytest.mark.parametrize(
    "patch, where",
    [
        ({"tolerances": {"torsion": float("nan")}}, "tolerances.torsion"),
        ({"points": [[float("nan"), 0.0]]}, "points[0][0]"),
        (
            {"connection": {"case": 12, "bindings": {"u": [0, {"terms": [
                {"c": float("nan"), "e": [1, 0]}]}]}}},
            "connection.bindings.u[1].terms[0].c",
        ),
        (
            {"connection": {"case": 12, "bindings": {"u": [float("-inf"), X1]}}},
            "connection.bindings.u[0]",
        ),
    ],
)
def test_non_finite_config_numbers_are_rejected_with_their_path(tmp_path, capsys, patch, where):
    path = config_file(tmp_path, dict(MINIMAL, **patch))
    code, out, err = run_main(capsys, "verify", "--config", path)
    assert code == 2 and out == ""
    assert f"{where}: expected a finite number" in err


HUGE = 10**400  # a JSON integer no float holds: math.isfinite raises on it


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"connection": {"raw": {"f1": {"terms": [{"c": HUGE, "e": [1, 0]}]}}}},
         "connection.raw.f1.terms[0].c: expected a finite number"),
        ({"connection": {"raw": {"f2": HUGE}}}, "connection.raw.f2: expected a finite number"),
        ({"manifold": {"chart": {"lower": [-1.0, -1.0], "upper": [1.0, HUGE]},
                       "metric": [[1.0, 0], [0, 1.0]]}},
         "manifold.chart.upper[1]: expected a finite number"),
        ({"points": [[1.0, 0.0], [0.5, HUGE]]}, "points[1][1]: expected a finite number"),
        ({"manifold": {"preset": "sphere2", "r": HUGE}},
         "manifold: preset parameter 'r' must be a finite number"),
    ],
)
def test_huge_json_integers_are_config_errors_with_their_path(tmp_path, capsys, patch, message):
    path = config_file(tmp_path, dict(MINIMAL, **patch))
    code, out, err = run_main(capsys, "verify", "--config", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"points": {"count": 10, "seed": -1}}, "points.seed: expected a non-negative integer"),
        ({"points": {"count": 10**12, "seed": 1}}, "points.count: expected an integer from 1 to"),
        ({"points": [[1.0, 0.0], [0.0, 1e300]]}, "points[1]: outside the chart box"),
        ({"manifold": {"preset": "euclidean", "n": 10**20}},
         "manifold: preset parameter 'n' must be at most 8"),
        ({"manifold": {"preset": "euclidean", "n": 2, "extra": 1}},
         "manifold: preset 'euclidean' got unknown parameters"),
        ({"manifold": {"preset": "nowhere"}}, "manifold: no manifold preset named"),
        ({"connection": {"raw": {"f1": {"terms": [{"c": 1.0, "e": [10**20, 0]}]}}}},
         "connection.raw.f1.terms[0].e: expected 2 integers from 0 to 2^63 - 1"),
    ],
)
def test_config_errors_found_by_fuzzing_name_their_path(tmp_path, capsys, patch, message):
    path = config_file(tmp_path, dict(MINIMAL, **patch))
    code, out, err = run_main(capsys, "verify", "--config", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("points, where", [
    ({"count": 3907, "seed": 1}, "points.count"),
    ([[0.0] * 8] * 3907, "points"),
])
def test_a_batch_is_capped_by_its_curvature_entries(points, where):
    # 3907 * 8**4 entries, one point over the cap; each rank-5 array would
    # take 128 MB, and a million sampled points 32.8 GB.  Parsed only: a
    # tree without the cap would go on to evaluate it.
    payload = {"manifold": {"preset": "euclidean", "n": 8}, "connection": {"raw": {}},
               "points": points}
    with pytest.raises(SchemaError) as refused:
        parse_config(json.dumps(payload))
    message = str(refused.value)
    assert message.startswith(f"{where}: expected ") and "3906 " in message, message
    assert "n = 8" in message


@pytest.mark.parametrize("n, count", [(2, 1_000_000), (8, 3906)])
def test_a_batch_at_the_cap_is_accepted(n, count):
    payload = {"manifold": {"preset": "euclidean", "n": n}, "connection": {"raw": {}},
               "points": {"count": count, "seed": 1}}
    assert parse_config(json.dumps(payload)).points.shape == (count, n)


WIDE_CHART = {"chart": {"lower": [-1e308, -1e308], "upper": [1e308, 1e308]},
              "metric": [[1.0, 0], [0, 1.0]]}


@pytest.mark.parametrize(
    "patch, code, message",
    [
        ({"manifold": WIDE_CHART, "points": {"count": 3, "seed": 1}}, 2,
         "points: cannot sample a chart box whose width overflows a float"),
        ({"manifold": WIDE_CHART}, 0, None),
        ({"manifold": {"chart": {"lower": [1.0, 1.0], "upper": [0.0, 2.0]},
                       "metric": [[1.0, 0], [0, 1.0]]}}, 2,
         "manifold.chart: chart upper bounds must exceed lower bounds"),
    ],
)
def test_chart_boxes_are_checked_without_warnings(tmp_path, capsys, patch, code, message):
    path = config_file(tmp_path, dict(MINIMAL, **patch))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_main(capsys, "verify", "--config", path)
    assert got == code
    if message is not None:
        assert out == "" and err.startswith(f"error: {message}")


def test_overflowing_polynomials_never_pass(tmp_path, capsys):
    huge = {"terms": [{"c": 1e300, "e": [3, 0]}]}
    payload = dict(MINIMAL, connection={"raw": {"f1": huge, "u": [huge, 0]}},
                   points={"count": 5, "seed": 1})
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, _ = run_main(capsys, "verify", "--config", config_file(tmp_path, payload))
    assert code != 0


HUGE = {"terms": [{"c": 1e300, "e": [3, 0]}]}
OVERFLOWING = dict(MINIMAL, connection={"raw": {"f1": HUGE, "u": [HUGE, 0]}},
                   points={"count": 5, "seed": 1})
# every law's residual, not only the curvature's, is non-finite here
OVERFLOWING_U1 = {
    "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
    "connection": {"raw": {"f1": HUGE, "u1": [1e300, 1]}},
    "points": {"count": 5, "seed": 1},
}
# what each command names as non-finite on OVERFLOWING
NON_FINITE_NAMES = {
    "verify": ("non_finite_checks", ["curvature_antisymmetry", "curvature_formula_vs_direct"]),
    "tensors": ("non_finite_tensors", ["r_formula"]),
    "ablate": ("non_finite_checks", ["curvature_formula_vs_direct"]),
}
ALL_CHECKS = [
    "torsion_law", "metricity_law", "transpose_torsion_law",
    "curvature_antisymmetry", "curvature_formula_vs_direct",
]


def has_null(nested) -> bool:
    if isinstance(nested, list):
        return any(has_null(item) for item in nested)
    return nested is None


@pytest.mark.parametrize(
    "payload, argv, output, key, names",
    [
        pytest.param(OVERFLOWING, (command,), output, *NON_FINITE_NAMES[command],
                     id=output if command == "verify" else f"{command}-{output}")
        for command in NON_FINITE_NAMES
        for output in ("json", "pretty")
    ] + [
        pytest.param(OVERFLOWING_U1, argv, output, "non_finite_checks", ALL_CHECKS,
                     id="-".join(("u1", *argv[2:], output)))
        for argv in (("verify",), ("verify", "--corrupt-term", "h_f1"))
        for output in ("json", "pretty")
    ],
)
def test_non_finite_residuals_fail_by_name(tmp_path, capsys, payload, argv, output, key, names):
    command = argv[0]
    path = config_file(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        code, out, err = run_main(capsys, command, "--config", path, *argv[1:],
                                  "--output", output)
    assert code == 1 and err == ""
    if output == "pretty":
        assert f"{key}:" in out
        return
    report = json.loads(out)
    assert report[key] == names
    if command == "tensors":
        for row in report["tensors"]:
            for name, value in row.items():
                if name not in names:
                    assert not has_null(value), name
        assert any(has_null(row[name]) for row in report["tensors"] for name in names)
        return
    assert report["pass"] is False and "diagnosis" not in report
    if command == "ablate":
        # a non-finite residual is not searched for a minimal failing set
        assert report["residual"] is None
        assert report["binding_ablation"] == [] and report["minimal_failing_bindings"] == []
        return
    for check in report["checks"]:
        named = check["check"] in names
        assert (check["residual"] is None) == named
        assert check["pass"] is not named


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_tolerance_flag_rejects_non_finite_values(tmp_path, capsys, value):
    path = config_file(tmp_path, MINIMAL)
    code, out, err = run_main(capsys, "verify", "--config", path, "--tolerance", value)
    assert code == 2 and out == ""
    assert "--tolerance: expected a finite number" in err


def test_tolerance_that_no_residual_can_exceed_is_refused(tmp_path, capsys):
    # a per-point residual is at most 2, so such a tolerance would pass a
    # doubled Riemann group
    payload = dict(RAW_BUMPY2, tolerances={"curvature": 1e300})
    path = config_file(tmp_path, payload)
    code, out, err = run_main(capsys, "verify", "--config", path, "--corrupt-term", "riemann")
    assert code == 2 and out == ""
    assert err == "error: tolerances.curvature: expected a number below 2\n"
    code, _, _ = run_main(capsys, "verify", "--config", config_file(tmp_path, RAW_BUMPY2),
                          "--corrupt-term", "riemann")
    assert code == 1


@pytest.mark.parametrize("value", ["2", "2.0", "1e300"])
def test_tolerance_flag_rejects_values_of_two_or_more(tmp_path, capsys, value):
    path = config_file(tmp_path, MINIMAL)
    code, out, err = run_main(capsys, "verify", "--config", path, "--tolerance", value)
    assert code == 2 and out == ""
    assert err == "error: --tolerance: expected a number below 2\n"


def test_tolerance_flag_accepts_values_below_two(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    code, out, _ = run_main(capsys, "verify", "--config", path, "--tolerance", "1.5")
    assert code == 0
    assert all(c["tolerance"] == 1.5 for c in json.loads(out)["checks"])


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# What a config fuzzer writes: extreme numbers over numbers, wrongly typed
# values anywhere.  No integer between 10**6 and 10**12: a count or dimension
# there would be a real allocation, not a rejected config.
EXTREME_NUMBERS = [
    1e300, -1e300, 1e-300, 5e-324, -2.5, -1, 0, 10**12, 10**20,
    float("nan"), float("inf"), float("-inf"),
]
WRONG_TYPES = ["x", "", None, True, [], {}, [1, 2, 3]]
BAD_EXPONENTS = [[-1, 0], [1.5, 0], [1], [1, 0, 0], [True, 0], ["1", 0], [10**12, 0]]
CONFIG_PATH = r"(config|manifold|connection|points|tolerances|output)(\.\w+|\[\d+\])*"


def config_paths(node, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from config_paths(child, path + (key,))


def mutate(data, config):
    """One fuzz edit of ``config`` in place: an extreme number over a number,
    a wrongly typed value over any node, a deleted or an added key, or a bad
    exponent list."""
    nodes = list(config_paths(config))[1:]  # the root is never replaced
    kind = data.draw(st.sampled_from(["number", "type", "delete", "extra", "exponent"]))
    if kind == "extra":
        dicts = [()] + [p for p, v in nodes if isinstance(v, dict)]
        path = data.draw(st.sampled_from(dicts)) + ("extra",)
    else:
        numbers = [p for p, v in nodes if type(v) in (int, float)]
        exponents = [p for p, _ in nodes if p[-1] == "e"]
        paths = {"number": numbers, "exponent": exponents}.get(kind) or [p for p, _ in nodes]
        path = data.draw(st.sampled_from(paths))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        pool = {"number": EXTREME_NUMBERS, "exponent": BAD_EXPONENTS}.get(kind, WRONG_TYPES)
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(pool)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([RAW_BUMPY2, RAW_EUCLIDEAN2]), st.integers(1, 3), st.data())
def test_fuzzed_configs_fail_cleanly(tmp_path_factory, base, edits, data):
    config = copy.deepcopy(base)
    for _ in range(edits):
        mutate(data, config)
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert re.fullmatch(f"error: {CONFIG_PATH}: [^\\n]+\\n", err), err
        return
    assert code in (0, 1), code
    report = json.loads(out)
    named = set(report.get("non_finite_checks", []))
    for check in report["checks"]:
        if check["check"] in named:
            assert check["residual"] is None and not check["pass"]
        else:
            assert math.isfinite(check["residual"])
    assert code == (0 if report["pass"] else 1)


# ------------------------------------------------------------ determinism

def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    payload = {
        "manifold": {"preset": "bumpy", "n": 2, "eps": 0.05, "seed": 4},
        "connection": {"case": 1, "bindings": {"u": [0, X1], "phi": [[X1, 1.0], [0, X2]]}},
        "points": {"count": 15, "seed": 21},
    }
    path = config_file(tmp_path, payload)
    _, first, _ = run_main(capsys, "verify", "--config", path)
    _, second, _ = run_main(capsys, "verify", "--config", path)
    assert first == second
    _, t1, _ = run_main(capsys, "tensors", "--config", path)
    _, t2, _ = run_main(capsys, "tensors", "--config", path)
    assert t1 == t2


def test_output_flag_switches_rendering(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    code, out, _ = run_main(capsys, "verify", "--config", path, "--output", "pretty")
    assert code == 0
    assert "torsion_law" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
