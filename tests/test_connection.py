"""Deformation tensor, torsion, non-metricity, transpose torsion."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn import (
    BadParams,
    ConnectionSpec,
    Corruption,
    DimensionMismatch,
    IdentityEndoField,
    PolynomialEndoField,
    PolynomialOneFormField,
    PolynomialScalarField,
    evaluate_spec,
    max_abs,
    nonmetricity_direct,
    nonmetricity_predicted,
    norm_residual,
    preset_manifold,
    random_spec,
    torsion_direct,
    torsion_predicted,
    transpose_torsion_closed,
    transpose_torsion_from_metric,
)
from affconn import fields
from affconn.connection import H_TERMS, deformation_h, point_max_abs, point_residuals, sharp, split_phi
from affconn.fields import PolynomialExpr, points_last
from affconn.levi_civita import PointGeometry
from conftest import rel_err

x1 = PolynomialExpr.coordinate(2, 0)
x2 = PolynomialExpr.coordinate(2, 1)
zero2 = PolynomialExpr.zero(2)


def identity_phi_fixture():
    """Flat metric, phi = Id, u = x^1 dx^2, evaluated at (1, 0)."""
    man = preset_manifold("euclidean", {"n": 2})
    spec = ConnectionSpec.build(
        2,
        u=PolynomialOneFormField(2, [zero2, x1]),
        phi=IdentityEndoField(2),
    )
    return man, spec, np.array([[1.0, 0.0]])


def double_recurrence_fixture():
    """Flat metric, f1 = f2 = -1, u1 = u2 = omega = x^2 dx^1, at (0, 1)."""
    man = preset_manifold("euclidean", {"n": 2})
    omega = PolynomialOneFormField(2, [x2, zero2])
    spec = ConnectionSpec.build(
        2,
        f1=PolynomialScalarField.constant(2, -1.0),
        f2=PolynomialScalarField.constant(2, -1.0),
        u1=omega,
        u2=omega,
    )
    return man, spec, np.array([[0.0, 1.0]])


# ------------------------------------------------------------ spec plumbing

def test_build_fills_missing_fields_with_zeros():
    spec = ConnectionSpec.build(3)
    assert spec.f1.is_zero and spec.f2.is_zero
    assert spec.u.is_zero and spec.u1.is_zero and spec.u2.is_zero
    assert spec.phi.is_zero
    zero = ConnectionSpec.zero(3)
    assert zero.n == 3 and zero.u.is_zero and zero.phi.is_zero


def test_build_checks_field_dimensions():
    with pytest.raises(DimensionMismatch):
        ConnectionSpec.build(2, u=PolynomialOneFormField.zero(3))


def test_with_zeroed_replaces_one_slot():
    man, spec, _ = identity_phi_fixture()
    cleared = spec.with_zeroed("u")
    assert cleared.u.is_zero
    assert not cleared.phi.is_zero
    with pytest.raises(BadParams):
        spec.with_zeroed("g")


def test_with_zeroed_follows_aliases():
    omega = PolynomialOneFormField(2, [x2, zero2])
    spec = ConnectionSpec.build(2, u=omega, u1=omega)
    cleared = spec.with_zeroed("u")
    assert cleared.u.is_zero and cleared.u1.is_zero  # same object, zeroed together
    solo = ConnectionSpec.build(2, u=omega, u1=PolynomialOneFormField(2, [x1, zero2]))
    assert not solo.with_zeroed("u").u1.is_zero


def test_with_zeroed_keeps_aliases_aliased_and_the_rest_untouched():
    man = preset_manifold("euclidean", {"n": 3})
    spec = random_spec(man.chart, 6)
    spec = ConnectionSpec.build(3, f1=spec.f1, f2=spec.f2, u=spec.u, u1=spec.u,
                                u2=spec.u2, phi=spec.phi)
    cleared = spec.with_zeroed("u")
    assert cleared.u.is_zero and cleared.u is cleared.u1  # one zero, one plan
    for name in ("f1", "f2", "u2", "phi"):
        assert getattr(cleared, name) is getattr(spec, name)


def test_random_spec_is_reproducible_and_fully_populated():
    man = preset_manifold("euclidean", {"n": 3})
    a = random_spec(man.chart, 5)
    b = random_spec(man.chart, 5)
    assert a.u.comps[0].terms == b.u.comps[0].terms
    assert a.phi.entries[0][1].terms == b.phi.entries[0][1].terms
    for f in (a.f1, a.f2, a.u, a.u1, a.u2, a.phi):
        assert not f.is_zero


# ------------------------------------------------------------ residual math

def test_residual_normalization():
    a = np.zeros((2, 2))
    assert norm_residual(a, a) == 0.0
    assert norm_residual(np.array([1.0]), np.array([0.0])) == 1.0
    # large tensors are compared scale-free
    big = np.full((3,), 1e6)
    assert norm_residual(big, big + 1.0) == pytest.approx(1e-6)
    assert max_abs(np.array([-3.0, 2.0])) == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residuals_of_non_finite_tensors_never_pass(bad):
    clean = np.zeros((2, 3))
    hot = clean.copy()
    hot[1, 2] = bad
    assert np.isnan(max_abs(clean, np.full(2, np.nan)))
    assert np.isnan(max_abs(np.full(2, np.nan), clean))
    for a, b in ((hot, clean), (clean, hot), (hot, hot)):
        with np.errstate(invalid="ignore"):  # inf - inf
            res = norm_residual(a, b)
        assert not np.isfinite(res)
        assert not res <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6).map(np.array))
def test_residual_of_anything_with_itself_is_zero(v):
    assert norm_residual(v, v) == 0.0


# ------------------------------------------------------------------- sharp

def test_sharp_on_flat_metric_returns_components(flat2):
    eta = PolynomialOneFormField(2, [zero2, x1])
    pts = np.array([[1.0, 0.0]])
    geo = PointGeometry(flat2.chart, flat2.metric, pts, order=1)
    xi = sharp(eta.jet(pts), geo.inv)
    assert np.array_equal(xi.comp, [[0.0, 1.0]])


def test_sharp_on_sphere_uses_inverse_metric(sphere):
    eta = PolynomialOneFormField(2, [zero2, PolynomialExpr.constant(2, 1.0)])
    pts = np.array([[np.pi / 4, 1.0]])
    geo = PointGeometry(sphere.chart, sphere.metric, pts, order=1)
    xi = sharp(eta.jet(pts), geo.inv)
    assert rel_err(xi.comp, [[0.0, 2.0]]) < 1e-14


def test_sharp_lowers_back_to_the_oneform(bumpy3):
    rng = np.random.default_rng(0)
    eta = PolynomialOneFormField(3, [PolynomialExpr.coordinate(3, i) * 1.5 for i in range(3)])
    pts = bumpy3.chart.sample(6, 1)
    geo = PointGeometry(bumpy3.chart, bumpy3.metric, pts, order=1)
    j = eta.jet(pts)
    xi = sharp(j, geo.inv)
    assert rel_err(np.einsum("pkm,pm->pk", geo.g, xi.comp), j.comp) < 1e-13


# ------------------------------------------------------------------- split

def test_split_of_identity_reproduces_the_metric(bumpy2):
    pts = bumpy2.chart.sample(4, 2)
    geo = PointGeometry(bumpy2.chart, bumpy2.metric, pts, order=1)
    split = split_phi(IdentityEndoField(2).jet(pts), geo.metric, geo.inv)
    assert rel_err(split.Phi, geo.g) < 1e-15
    assert rel_err(split.Phi1, geo.g) < 1e-15
    assert np.all(split.Phi2 == 0.0)
    assert rel_err(split.phi1, np.broadcast_to(np.eye(2), (4, 2, 2))) < 1e-13
    assert max_abs(split.phi2) < 1e-13


def test_split_symmetrizes_on_the_flat_metric(flat2):
    # phi maps d1 to d2, so Phi_12 = g(phi d1, d2) = 1 and Phi_21 = 0
    phi = PolynomialEndoField(2, [[zero2, zero2], [PolynomialExpr.constant(2, 1.0), zero2]])
    pts = np.zeros((1, 2))
    geo = PointGeometry(flat2.chart, flat2.metric, pts, order=1)
    split = split_phi(phi.jet(pts), geo.metric, geo.inv)
    assert np.array_equal(split.Phi1[0], [[0.0, 0.5], [0.5, 0.0]])
    assert np.array_equal(split.Phi2[0], [[0.0, 0.5], [-0.5, 0.0]])


def test_split_exactness_invariants(bumpy3):
    spec = random_spec(bumpy3.chart, 7)
    pts = bumpy3.chart.sample(5, 3)
    frame = evaluate_spec(bumpy3.chart, bumpy3.metric, spec, pts)
    split = frame.split
    assert np.array_equal(split.Phi1, split.Phi1.swapaxes(1, 2))
    assert np.array_equal(split.Phi2, -split.Phi2.swapaxes(1, 2))
    assert np.array_equal(split.Phi1 + split.Phi2, split.Phi)
    # raised parts recombine to phi up to inversion error
    assert rel_err(split.phi1 + split.phi2, frame.phi.comp) < 1e-12
    # index consistency: g-lowering the raised parts returns the forms
    assert rel_err(np.einsum("pmi,pmj->pij", split.phi1, frame.geo.g), split.Phi1) < 1e-12


def test_skew_phi_has_no_symmetric_part(flat2):
    phi = PolynomialEndoField(2, [[zero2, x1], [zero2 - x1, zero2]])
    pts = np.array([[0.5, 0.0]])
    geo = PointGeometry(flat2.chart, flat2.metric, pts, order=1)
    split = split_phi(phi.jet(pts), geo.metric, geo.inv)
    assert max_abs(split.phi1) < 1e-15
    assert rel_err(split.phi2, phi.jet(pts).comp) < 1e-15


# ------------------------------------------------------- deformation tensor

def test_zero_spec_has_zero_deformation(bumpy2):
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, ConnectionSpec.zero(2), bumpy2.chart.sample(3, 4))
    assert np.all(frame.h == 0.0)
    assert np.array_equal(frame.gamma_tilde, frame.geo.gamma)


def test_deformation_values_identity_phi_fixture():
    man, spec, pts = identity_phi_fixture()
    frame = evaluate_spec(man.chart, man.metric, spec, pts)
    h = frame.h[0]
    assert h[0, 0, 1] == 1.0   # H^1_{12}
    assert h[1, 0, 0] == -1.0  # H^2_{11}
    assert h[1, 1, 1] == 0.0   # H^2_{22}
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = 1.0
    expected[1, 0, 0] = -1.0
    assert np.array_equal(h, expected)


def test_deformation_values_double_recurrence_fixture():
    man, spec, pts = double_recurrence_fixture()
    frame = evaluate_spec(man.chart, man.metric, spec, pts)
    h = frame.h[0]
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 2.0           # H^1_{11}
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0  # H^2_{12} = H^2_{21}
    assert np.array_equal(h, expected)


def test_h_term_corruption_scales_exactly_one_term(bumpy2):
    spec = random_spec(bumpy2.chart, 8)
    pts = bumpy2.chart.sample(4, 5)
    clean = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts)
    deltas = []
    for name in H_TERMS:
        hot = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption(name))
        deltas.append(hot.h - clean.h)
        assert max_abs(deltas[-1]) > 1e-6  # the term is live on a generic spec
    # doubling a term adds it once more, so the five deltas sum to H
    assert rel_err(sum(deltas), clean.h) < 1e-12


def test_unknown_corruption_name_is_ignored_by_h(bumpy2):
    # deformation only reacts to its own term names
    spec = random_spec(bumpy2.chart, 8)
    pts = bumpy2.chart.sample(3, 6)
    clean = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts)
    hot = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption("riemann"))
    assert np.array_equal(clean.h, hot.h)


def test_blocked_residuals_equal_the_one_block_expression(monkeypatch):
    # NaN and inf in different blocks of 3 points: each point keeps its own
    # residual, NaN positions included
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 10, 3, 3, 3))
    a[1, 0, 2, 1] = np.nan  # block 0
    b[4, 1, 1, 0] = np.inf  # block 1
    a[8, 2, 0, 0] = b[8, 2, 0, 0] = -np.inf  # block 2
    with np.errstate(invalid="ignore"):  # inf - inf, inf / inf
        scale = np.maximum(np.maximum(point_max_abs(a), point_max_abs(b)), 1.0)
        whole = point_max_abs(a - b) / scale
        monkeypatch.setattr(fields, "_BLOCK_BYTES", 3 * 8 * 27)
        assert len(fields._blocks(10, 27)) == 4
        blocked = point_residuals(a, b)
    assert np.array_equal(blocked, whole, equal_nan=True)
    assert np.flatnonzero(np.isnan(blocked)).tolist() == [1, 4, 8]


def test_the_residual_holds_no_full_size_temporary():
    # two curvature-sized tensors of bumpy n = 4 at m = 2000, 4.1 MB each:
    # 2.0x when a - b and its |.| were whole-batch arrays
    rng = np.random.default_rng(13)
    a, b = (points_last(rng.standard_normal((2000, 4, 4, 4, 4))) for _ in range(2))
    tracemalloc.start()
    try:
        norm_residual(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * a.nbytes, peak / a.nbytes


# ---------------------------------------------------------------- torsion

def test_torsion_values_identity_phi_fixture():
    man, spec, pts = identity_phi_fixture()
    frame = evaluate_spec(man.chart, man.metric, spec, pts)
    t = torsion_direct(frame.gamma_tilde)
    expected = np.zeros((1, 2, 2, 2))
    expected[0, 0, 0, 1] = 1.0   # T^1_{12}
    expected[0, 0, 1, 0] = -1.0
    assert np.array_equal(t, expected)
    pred = torsion_predicted(frame.u.comp, frame.phi.comp)
    assert norm_residual(t, pred) < 1e-15


def test_torsion_is_exactly_antisymmetric(bumpy3):
    spec = random_spec(bumpy3.chart, 9)
    frame = evaluate_spec(bumpy3.chart, bumpy3.metric, spec, bumpy3.chart.sample(5, 7))
    t = torsion_direct(frame.gamma_tilde)
    assert np.array_equal(t, -t.swapaxes(2, 3))
    pred = torsion_predicted(frame.u.comp, frame.phi.comp)
    assert np.array_equal(pred, -pred.swapaxes(2, 3))


def test_torsion_law_needs_the_full_endomorphism(bumpy2):
    # replacing phi by its symmetric part alone must break the law,
    # otherwise this check could never fail
    spec = random_spec(bumpy2.chart, 10)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(4, 8))
    t = torsion_direct(frame.gamma_tilde)
    good = torsion_predicted(frame.u.comp, frame.phi.comp)
    crippled = torsion_predicted(frame.u.comp, frame.split.phi1)
    assert norm_residual(t, good) < 1e-12
    assert norm_residual(t, crippled) > 1e-3


def test_torsion_vanishes_without_u(bumpy2):
    spec = random_spec(bumpy2.chart, 11).with_zeroed("u")
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(4, 9))
    t = torsion_direct(frame.gamma_tilde)
    assert max_abs(t) < 1e-13


# ------------------------------------------------------------ non-metricity

def test_metric_connection_when_both_coefficients_vanish(bumpy2):
    spec = random_spec(bumpy2.chart, 12).with_zeroed("f1").with_zeroed("f2")
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(4, 10))
    q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
    assert max_abs(q) < 1e-12


def test_nonmetricity_law_on_random_specs(bumpy3):
    spec = random_spec(bumpy3.chart, 13)
    frame = evaluate_spec(bumpy3.chart, bumpy3.metric, spec, bumpy3.chart.sample(6, 11))
    q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
    pred = nonmetricity_predicted(
        frame.geo.g, frame.u1.comp, frame.u2.comp, frame.f1.value, frame.f2.value
    )
    assert norm_residual(q, pred) < 1e-12
    assert np.array_equal(q, q.swapaxes(2, 3))  # symmetric in the metric slots


def test_nonmetricity_values_double_recurrence_fixture():
    man, spec, pts = double_recurrence_fixture()
    frame = evaluate_spec(man.chart, man.metric, spec, pts)
    q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
    # -2 w(X) g(Y,Z) - w(Y) g(X,Z) - w(Z) g(X,Y) with w = (1, 0) at the point
    assert q[0, 0, 0, 0] == -4.0
    assert q[0, 0, 1, 1] == -2.0
    assert q[0, 1, 0, 0] == 0.0


# ------------------------------------------------------- transpose torsion

def test_transpose_torsion_identity_phi_fixture():
    man, spec, pts = identity_phi_fixture()
    frame = evaluate_spec(man.chart, man.metric, spec, pts)
    t = torsion_direct(frame.gamma_tilde)
    tp = transpose_torsion_closed(frame.u.comp, frame.split, frame.u_sharp.comp)
    assert tp[0, 1, 0, 0] == -1.0  # second component of T'(d1, d1)
    assert tp[0, 0, 1, 0] == 1.0   # first component of T'(d2, d1)
    via_metric = transpose_torsion_from_metric(t, frame.geo.g, frame.geo.ginv)
    assert norm_residual(tp, via_metric) < 1e-14


def test_transpose_torsion_two_routes_agree(bumpy3):
    spec = random_spec(bumpy3.chart, 14)
    frame = evaluate_spec(bumpy3.chart, bumpy3.metric, spec, bumpy3.chart.sample(6, 12))
    t = torsion_direct(frame.gamma_tilde)
    closed = transpose_torsion_closed(frame.u.comp, frame.split, frame.u_sharp.comp)
    metric_route = transpose_torsion_from_metric(t, frame.geo.g, frame.geo.ginv)
    assert norm_residual(closed, metric_route) < 1e-11


def test_transpose_torsion_defining_identity(bumpy2):
    # g(T'(X,Y), Z) = g(T(Z,X), Y) checked slotwise
    spec = random_spec(bumpy2.chart, 15)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(5, 13))
    t = torsion_direct(frame.gamma_tilde)
    tp = transpose_torsion_closed(frame.u.comp, frame.split, frame.u_sharp.comp)
    lhs = np.einsum("pkij,pkz->pijz", tp, frame.geo.g)
    rhs = np.einsum("pkzi,pkj->pijz", t, frame.geo.g)
    assert norm_residual(lhs, rhs) < 1e-12


def test_transpose_torsion_vanishes_without_u(bumpy2):
    spec = random_spec(bumpy2.chart, 16).with_zeroed("u")
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(3, 14))
    tp = transpose_torsion_closed(frame.u.comp, frame.split, frame.u_sharp.comp)
    assert np.all(tp == 0.0)


# ------------------------------------------------------------ evaluate_spec

@pytest.mark.parametrize("m", [3, 256])
def test_aliased_fields_share_one_jet(bumpy2, m):
    omega = PolynomialOneFormField(2, [x2, zero2])
    spec = ConnectionSpec.build(2, u=omega, u1=omega)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, bumpy2.chart.sample(m, 15))
    assert frame.u1 is frame.u and frame.u1_sharp is frame.u_sharp
    assert frame.u2 is not frame.u


def test_theorem_identities_across_preset_manifolds(flat2, flat3, sphere, halfplane, bumpy2, bumpy3):
    # compact version of the acceptance sweep, one spec per manifold
    for k, man in enumerate((flat2, flat3, sphere, halfplane, bumpy2, bumpy3)):
        spec = random_spec(man.chart, 100 + k)
        pts = man.chart.sample(10, 200 + k)
        frame = evaluate_spec(man.chart, man.metric, spec, pts)
        t = torsion_direct(frame.gamma_tilde)
        assert norm_residual(t, torsion_predicted(frame.u.comp, frame.phi.comp)) < 1e-10
        q = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
        pred = nonmetricity_predicted(
            frame.geo.g, frame.u1.comp, frame.u2.comp, frame.f1.value, frame.f2.value
        )
        assert norm_residual(q, pred) < 1e-10
