"""Preset catalogue: construction, reduced laws, aliases, sub-cases."""

import dataclasses

import numpy as np
import pytest

from affconn import (
    BadParams,
    CaseUnknown,
    DimensionMismatch,
    ExtraBinding,
    IdentityEndoField,
    JetOrderUnsupported,
    MissingBinding,
    build_case,
    case_ids,
    evaluate_spec,
    get_case,
    list_cases,
    norm_residual,
    preset_manifold,
    torsion_direct,
    verify_case,
)
from affconn import cases
from affconn.cases import (
    CasePreset,
    RicciOperatorEndoField,
    SkewPartEndoField,
    SymmetricPartEndoField,
)
from affconn.fields import (
    PolynomialEndoField,
    PolynomialExpr,
    PolynomialOneFormField,
    random_polynomial,
)
from affconn.levi_civita import PointGeometry
from conftest import rel_err


def rand_oneform(n, rng):
    return PolynomialOneFormField(n, [random_polynomial(n, rng, 2) for _ in range(n)])


def rand_endo(n, rng):
    return PolynomialEndoField(
        n, [[random_polynomial(n, rng, 2) for _ in range(n)] for _ in range(n)]
    )


def bindings_for(preset, n, rng):
    out = {}
    for name in sorted(preset.required):
        out[name] = rand_endo(n, rng) if name == "phi" else rand_oneform(n, rng)
    return out


# ---------------------------------------------------------------- registry

def test_registry_has_all_entries_in_order():
    ids = case_ids()
    assert ids == [
        "1", "2", "2a", "3", "4", "5", "6", "7", "8", "9", "10", "11",
        "12", "13", "13a", "13b", "14", "14a", "14b", "15", "16", "17",
    ]
    assert len(set(ids)) == 22


def test_registry_counts_primary_and_sub_cases():
    presets = list_cases()
    primary = [p for p in presets if p.parent is None]
    subs = [p for p in presets if p.parent is not None]
    assert len(primary) == 17
    assert sorted(p.id for p in subs) == ["13a", "13b", "14a", "14b", "2a"]
    assert all(get_case(p.parent).parent is None for p in subs)


def test_get_case_accepts_int_and_str():
    assert get_case(12) is get_case("12")
    assert get_case("13b").parent == "13"
    for bad in (99, "nope", "13c"):
        with pytest.raises(CaseUnknown):
            get_case(bad)


def test_registry_constants():
    assert get_case(16).f1 == 0.5 and get_case(16).f2 == 0.0
    assert get_case(17).f1 == -1.0 and get_case(17).f2 == -1.0
    assert get_case(14).f2 == 2.0 and get_case("14a").f2 == -1.0
    assert get_case(15).f1 == 2.0 and get_case(15).f2 == 3.0
    assert get_case(2).requires_curved and not get_case("2a").requires_curved
    deviating = {p.id for p in list_cases() if p.prose_deviation}
    assert deviating == {"6", "13"}
    symmetric = {p.id for p in list_cases() if p.symmetric}
    assert symmetric == {"15", "16", "17"}


# (required, uses_u, symmetric, requires_curved) as each preset spelt them
# out before they were derived from its phi mode and one-form sources.
STATED_SHAPES = {
    "1": (("u", "phi"), True, False, False),
    "2": (("u",), True, False, True),
    "2a": (("u", "phi"), True, False, False),
    "3": (("u", "phi"), True, False, False),
    "4": (("u", "phi", "u1"), True, False, False),
    "5": (("u", "phi"), True, False, False),
    "6": (("u", "phi", "u1"), True, False, False),
    "7": (("u", "phi"), True, False, False),
    "8": (("u", "phi", "u2"), True, False, False),
    "9": (("u", "phi"), True, False, False),
    "10": (("u", "phi", "u2"), True, False, False),
    "11": (("u", "phi"), True, False, False),
    "12": (("u",), True, False, False),
    "13": (("u", "u1"), True, False, False),
    "13a": (("u", "u1"), True, False, False),
    "13b": (("u",), True, False, False),
    "14": (("u", "u2"), True, False, False),
    "14a": (("u", "u2"), True, False, False),
    "14b": (("u",), True, False, False),
    "15": (("u1", "u2"), False, True, False),
    "16": (("omega",), False, True, False),
    "17": (("omega",), False, True, False),
}


def test_presets_store_only_their_choices():
    assert [f.name for f in dataclasses.fields(CasePreset)] == [
        "id", "name", "f1", "f2", "phi_mode", "u1_src", "u2_src",
        "prose_deviation", "parent",
    ]


@pytest.mark.parametrize("cid", case_ids())
def test_derived_preset_shape_matches_the_stated_one(cid):
    preset = get_case(cid)
    shape = (preset.required, preset.uses_u, preset.symmetric, preset.requires_curved)
    assert shape == STATED_SHAPES[cid]


@pytest.mark.parametrize("cid", case_ids())
def test_listed_checks_are_the_checks_verify_case_runs(bumpy3, cid):
    # the two general laws, then exactly what the preset lists, in order
    preset = get_case(cid)
    rng = np.random.default_rng(70 + int(cid.rstrip("ab")))
    res = verify_case(cid, bindings_for(preset, 3, rng), bumpy3, bumpy3.chart.sample(4, 53))
    listed = ["torsion_law", "metricity_law"] + [
        name.removesuffix(" (reported, prose deviates)") for name in preset.checks
    ]
    assert [name for name in listed if name not in res.reported] == list(res.residuals)
    assert [name for name in listed if name in res.reported] == list(res.reported)
    assert len(set(listed)) == len(listed)


# ------------------------------------------------------------ construction

def test_every_preset_rejects_missing_and_extra_bindings(flat3):
    rng = np.random.default_rng(0)
    for preset in list_cases():
        with pytest.raises(MissingBinding):
            build_case(preset.id, {}, flat3)
        full = bindings_for(preset, 3, rng)
        full["bogus"] = rand_oneform(3, rng)
        with pytest.raises(ExtraBinding):
            build_case(preset.id, full, flat3)


def test_binding_errors_name_the_slots(flat3):
    with pytest.raises(MissingBinding) as exc:
        build_case(4, {"u": rand_oneform(3, np.random.default_rng(1))}, flat3)
    msg = str(exc.value)
    assert "phi" in msg and "u1" in msg


def test_build_checks_binding_kind_and_dimension(flat3):
    rng = np.random.default_rng(2)
    with pytest.raises(BadParams):
        build_case(12, {"u": rand_endo(3, rng)}, flat3)
    with pytest.raises(DimensionMismatch):
        build_case(12, {"u": rand_oneform(2, rng)}, flat3)
    with pytest.raises(CaseUnknown):
        build_case("0", {"u": rand_oneform(3, rng)}, flat3)


def test_built_specs_realize_the_phi_modes(flat3):
    rng = np.random.default_rng(3)
    assert isinstance(build_case(12, bindings_for(get_case(12), 3, rng), flat3).phi, IdentityEndoField)
    assert isinstance(build_case(2, bindings_for(get_case(2), 3, rng), flat3).phi, RicciOperatorEndoField)
    assert isinstance(build_case("2a", bindings_for(get_case("2a"), 3, rng), flat3).phi, SymmetricPartEndoField)
    assert isinstance(build_case(3, bindings_for(get_case(3), 3, rng), flat3).phi, SkewPartEndoField)
    spec1 = build_case(1, bindings_for(get_case(1), 3, rng), flat3)
    assert isinstance(spec1.phi, PolynomialEndoField)
    for cid in ("15", "16", "17"):
        assert build_case(cid, bindings_for(get_case(cid), 3, rng), flat3).phi.is_zero


def test_built_specs_alias_tied_slots(flat3):
    rng = np.random.default_rng(4)
    for cid, pair in (("5", ("u1", "u")), ("7", ("u1", "u")), ("13b", ("u1", "u")),
                      ("9", ("u2", "u")), ("11", ("u2", "u")), ("14b", ("u2", "u")),
                      ("17", ("u1", "u2"))):
        spec = build_case(cid, bindings_for(get_case(cid), 3, rng), flat3)
        assert getattr(spec, pair[0]) is getattr(spec, pair[1]), cid


def test_built_specs_pin_the_coefficients(flat3):
    rng = np.random.default_rng(5)
    pts = np.zeros((1, 3))
    spec = build_case(16, bindings_for(get_case(16), 3, rng), flat3)
    assert spec.f1.jet(pts).value[0] == 0.5
    assert spec.f2.is_zero
    spec = build_case(17, bindings_for(get_case(17), 3, rng), flat3)
    assert spec.f1.jet(pts).value[0] == -1.0
    assert spec.f2.jet(pts).value[0] == -1.0


# ----------------------------------------------------------- derived fields

def test_symmetric_and_skew_parts_on_the_flat_metric(flat2):
    # constant endomorphism on the identity metric splits as matrix halves
    c = PolynomialExpr.constant(2, 1.0)
    z = PolynomialExpr.zero(2)
    base = PolynomialEndoField(2, [[z, c], [z, z]])
    pts = np.zeros((3, 2))
    geo = PointGeometry(flat2.chart, flat2.metric, pts, order=1)
    sym = SymmetricPartEndoField(base).jet_geo(geo)
    skew = SkewPartEndoField(base).jet_geo(geo)
    assert np.array_equal(sym.comp[0], [[0.0, 0.5], [0.5, 0.0]])
    assert np.array_equal(skew.comp[0], [[0.0, 0.5], [-0.5, 0.0]])
    assert np.array_equal(sym.comp + skew.comp, base.jet(pts).comp)


def test_part_fields_delegate_zero_and_order():
    z = PolynomialEndoField.zero(2)
    assert SymmetricPartEndoField(z).is_zero
    assert not SymmetricPartEndoField(IdentityEndoField(2)).is_zero
    assert SymmetricPartEndoField(z).min_metric_order == 1
    assert SkewPartEndoField(z).min_metric_order == 1
    assert RicciOperatorEndoField(2).min_metric_order == 3
    assert not RicciOperatorEndoField(2).is_zero


@pytest.mark.parametrize("cls, part", [(SymmetricPartEndoField, "symmetric"),
                                       (SkewPartEndoField, "skew")])
def test_part_fields_refuse_a_non_endomorphism_base(cls, part):
    with pytest.raises(BadParams, match=f"^{part} part needs an endomorphism base field$"):
        cls(PolynomialOneFormField.zero(2))


def test_ricci_operator_field_values(sphere, flat2):
    pts = sphere.chart.sample(4, 6)
    geo = PointGeometry(sphere.chart, sphere.metric, pts, order=3)
    j = RicciOperatorEndoField(2).jet_geo(geo)
    assert rel_err(j.comp, np.broadcast_to(np.eye(2), (4, 2, 2))) < 1e-12
    flat_geo = PointGeometry(flat2.chart, flat2.metric, np.zeros((2, 2)), order=3)
    assert np.all(RicciOperatorEndoField(2).jet_geo(flat_geo).comp == 0.0)


def test_ricci_operator_field_needs_third_order_jets(bumpy2):
    geo = PointGeometry(bumpy2.chart, bumpy2.metric, bumpy2.chart.sample(2, 7), order=2)
    with pytest.raises(JetOrderUnsupported):
        RicciOperatorEndoField(2).jet_geo(geo)


def test_evaluate_spec_bumps_order_for_derived_phi(bumpy2):
    rng = np.random.default_rng(8)
    spec = build_case(2, {"u": rand_oneform(2, rng)}, bumpy2)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(3, 9))
    assert frame.geo.metric.order >= 3  # requested 1, raised by the Ricci field


# ------------------------------------------------------------- verification

@pytest.mark.parametrize("cid", case_ids())
def test_each_case_passes_on_a_curved_polynomial_metric(bumpy2, cid):
    rng = np.random.default_rng(10 + int(cid.rstrip("ab") or 0))
    preset = get_case(cid)
    res = verify_case(cid, bindings_for(preset, 2, rng), bumpy2, bumpy2.chart.sample(8, 50))
    assert res.passed, res.residuals
    for name, value in res.residuals.items():
        assert value < res.tolerances[name], name
    if preset.prose_deviation:
        assert "metricity_stated" in res.reported
        assert res.reported["metricity_stated"] > 0.2  # far beyond tolerance
        assert "metricity_stated" not in res.residuals
        assert any("2*f1" in note for note in res.notes)
    else:
        assert "metricity_stated" in res.residuals


@pytest.mark.parametrize("cid", [c for c in case_ids() if not get_case(c).requires_curved])
def test_each_case_passes_on_the_round_sphere(sphere, cid):
    rng = np.random.default_rng(60 + int(cid.rstrip("ab") or 0))
    res = verify_case(cid, bindings_for(get_case(cid), 2, rng), sphere, sphere.chart.sample(8, 51))
    assert res.passed, res.residuals


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1e-10, 2.0, True, "1e-9"])
@pytest.mark.parametrize("argument", ["tolerance", "curvature_tolerance"])
def test_verify_case_refuses_a_tolerance_that_cannot_gate(bumpy2, monkeypatch, argument, bad):
    # an infinite tolerance would pass a wrong reduced law; NaN or one at or
    # below zero would fail every check without saying why; True would gate
    # at 1 and be reported as true, and a string is no number
    reduced_gamma = cases._reduced_gamma
    monkeypatch.setattr(cases, "_reduced_gamma", lambda p, f: 1.5 * reduced_gamma(p, f))
    rng = np.random.default_rng(20)
    with pytest.raises(BadParams, match=f"^{argument}: expected a"):
        verify_case(12, bindings_for(get_case(12), 2, rng), bumpy2,
                    bumpy2.chart.sample(10, 60), **{argument: bad})
    assert not verify_case(12, bindings_for(get_case(12), 2, rng), bumpy2,
                           bumpy2.chart.sample(10, 60)).passed


def test_symmetric_cases_have_exactly_zero_torsion(bumpy2):
    rng = np.random.default_rng(12)
    for cid in ("15", "16", "17"):
        res = verify_case(cid, bindings_for(get_case(cid), 2, rng), bumpy2, bumpy2.chart.sample(5, 52))
        assert res.residuals["torsion_zero"] == 0.0


def test_aliases_are_reported_as_bit_identical(bumpy2):
    rng = np.random.default_rng(13)
    res = verify_case(5, bindings_for(get_case(5), 2, rng), bumpy2, bumpy2.chart.sample(4, 53))
    assert res.aliases == {"u1_is_u": True}
    res17 = verify_case(17, bindings_for(get_case(17), 2, rng), bumpy2, bumpy2.chart.sample(4, 53))
    assert res17.aliases == {"u2_is_u1": True}


def test_ricci_case_on_flat_space_degenerates_with_a_note(flat2):
    rng = np.random.default_rng(14)
    res = verify_case(2, {"u": rand_oneform(2, rng)}, flat2, flat2.chart.sample(4, 54))
    assert res.passed
    assert any("Ricci operator vanishes" in note for note in res.notes)


def test_ricci_case_matches_identity_case_on_the_unit_sphere(sphere):
    # unit sphere has Q = Id, so the Ricci preset must coincide with the
    # identity-phi preset there
    rng = np.random.default_rng(15)
    u = rand_oneform(2, rng)
    pts = sphere.chart.sample(6, 55)
    ricci_spec = build_case(2, {"u": u}, sphere)
    ident_spec = build_case(12, {"u": u}, sphere)
    fr_a = evaluate_spec(sphere.chart, sphere.metric, ricci_spec, pts)
    fr_b = evaluate_spec(sphere.chart, sphere.metric, ident_spec, pts)
    assert norm_residual(fr_a.gamma_tilde, fr_b.gamma_tilde) < 1e-9


def test_cancelling_sub_case_collapses_to_a_single_term(bumpy2):
    # with u1 = u and f1 = 1, three of the four u-terms cancel and the
    # whole deformation is -u(X) Y
    rng = np.random.default_rng(16)
    u = rand_oneform(2, rng)
    pts = bumpy2.chart.sample(6, 56)
    spec = build_case("13b", {"u": u}, bumpy2)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts)
    uval = u.jet(pts).comp
    expected = frame.geo.gamma - np.einsum("pi,kj->pkij", uval, np.eye(2))
    assert norm_residual(frame.gamma_tilde, expected) < 1e-12
    t = torsion_direct(frame.gamma_tilde)
    predicted = -np.einsum("pi,kj->pkij", uval, np.eye(2)) + np.einsum(
        "pj,ki->pkij", uval, np.eye(2)
    )
    assert norm_residual(t, predicted) < 1e-12


def test_projective_sub_case_collapses_to_a_single_term(bumpy2):
    # u2 = u and f2 = -1 cancels everything except +u(Y) X
    rng = np.random.default_rng(17)
    u = rand_oneform(2, rng)
    pts = bumpy2.chart.sample(6, 57)
    spec = build_case("14b", {"u": u}, bumpy2)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts)
    uval = u.jet(pts).comp
    expected = frame.geo.gamma + np.einsum("pj,ki->pkij", uval, np.eye(2))
    assert norm_residual(frame.gamma_tilde, expected) < 1e-12


def test_double_recurrence_case_is_a_two_sided_projective_change(bumpy2):
    rng = np.random.default_rng(18)
    omega = rand_oneform(2, rng)
    pts = bumpy2.chart.sample(6, 58)
    spec = build_case(17, {"omega": omega}, bumpy2)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts)
    w = omega.jet(pts).comp
    expected = (
        frame.geo.gamma
        + np.einsum("pi,kj->pkij", w, np.eye(2))
        + np.einsum("pj,ki->pkij", w, np.eye(2))
    )
    assert norm_residual(frame.gamma_tilde, expected) < 1e-12


def test_case_check_result_serializes(bumpy2):
    rng = np.random.default_rng(19)
    res = verify_case(12, bindings_for(get_case(12), 2, rng), bumpy2, bumpy2.chart.sample(3, 59))
    d = res.as_dict()
    assert sorted(d) == ["aliases", "case", "name", "notes", "pass", "reported", "residuals", "tolerances"]
    assert d["case"] == "12" and d["pass"] is True
    assert set(d["residuals"]) == set(d["tolerances"]) or set(d["residuals"]) <= set(d["tolerances"])
