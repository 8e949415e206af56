"""Levi-Civita oracle: Christoffel symbols, curvature, covariant derivatives."""

import numpy as np
import pytest

from affconn import JetOrderUnsupported, PolynomialOneFormField, random_polynomial
from affconn.cases import RicciOperatorEndoField
from affconn.fields import PolynomialEndoField, PolynomialExpr, _whole
from affconn.levi_civita import (
    PointGeometry,
    christoffel,
    cov_deriv,
    cov_deriv_endo,
    cov_deriv_oneform,
    cov_deriv_vector,
    inverse_metric,
    ricci_data,
    riemann,
    riemann_d1,
)
from conftest import central_diff, rel_err


def geometry(man, count, seed, order=2):
    pts = man.chart.sample(count, seed)
    return PointGeometry(man.chart, man.metric, pts, order=order), pts


def sectional_k(geo):
    r, g = geo.riemann_rows(), geo.g
    rlow = np.einsum("plijk,plm->pmijk", r, g)
    den = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    return rlow[:, 0, 0, 1, 1] / den


# ------------------------------------------------------------- flat space

def test_flat_space_has_no_connection_or_curvature(flat3):
    geo, _ = geometry(flat3, 4, 0)
    assert np.all(geo.gamma == 0.0)
    assert np.all(geo.riemann_rows() == 0.0)
    assert np.all(geo.ricci.s == 0.0)
    assert np.all(geo.ricci.q == 0.0)


# ------------------------------------------------- closed-form geometries

def test_sphere_christoffel_symbols(sphere):
    pts = np.array([[np.pi / 4, 1.0], [1.2, 3.0]])
    geo = PointGeometry(sphere.chart, sphere.metric, pts, order=2)
    theta = pts[:, 0]
    assert rel_err(geo.gamma[:, 0, 1, 1], -np.sin(theta) * np.cos(theta)) < 1e-14
    assert rel_err(geo.gamma[:, 1, 0, 1], 1.0 / np.tan(theta)) < 1e-14
    assert np.array_equal(geo.gamma[:, 1, 0, 1], geo.gamma[:, 1, 1, 0])
    assert np.all(geo.gamma[:, 0, 0, 0] == 0.0)


def test_halfplane_christoffel_symbols(halfplane):
    pts = np.array([[0.5, 0.8], [-1.0, 2.0]])
    geo = PointGeometry(halfplane.chart, halfplane.metric, pts, order=2)
    y = pts[:, 1]
    assert rel_err(geo.gamma[:, 0, 0, 1], -1.0 / y) < 1e-14
    assert rel_err(geo.gamma[:, 1, 0, 0], 1.0 / y) < 1e-14
    assert rel_err(geo.gamma[:, 1, 1, 1], -1.0 / y) < 1e-14
    assert np.all(geo.gamma[:, 0, 0, 0] == 0.0)


def test_sphere_sectional_curvature_is_plus_one(sphere):
    geo, _ = geometry(sphere, 25, 3)
    assert np.max(np.abs(sectional_k(geo) - 1.0)) < 1e-12


def test_halfplane_sectional_curvature_is_minus_one(halfplane):
    geo, _ = geometry(halfplane, 25, 3)
    assert np.max(np.abs(sectional_k(geo) + 1.0)) < 1e-12


def test_unit_sphere_ricci_equals_metric(sphere):
    geo, _ = geometry(sphere, 25, 4)
    assert rel_err(geo.ricci.s, geo.g) < 1e-13
    assert np.max(np.abs(geo.ricci.q - np.eye(2))) < 1e-13


# ---------------------------------------------------------- differentiation

def test_inverse_metric_jets(bumpy2):
    pts = bumpy2.chart.sample(4, 6)
    mj = bumpy2.metric.jet(pts, 3)
    inv = inverse_metric(mj)
    ident = np.einsum("pij,pjk->pik", mj.comp, inv.comp)
    assert rel_err(ident, np.broadcast_to(np.eye(2), ident.shape)) < 1e-13
    fd1 = central_diff(lambda q: inverse_metric(bumpy2.metric.jet(q, 1)).comp, pts)
    assert rel_err(inv.d1, fd1) < 1e-8
    fd2 = central_diff(lambda q: inverse_metric(bumpy2.metric.jet(q, 2)).d1, pts)
    assert rel_err(inv.d2, fd2) < 1e-7


def test_christoffel_jets_and_symmetry(bumpy2):
    pts = bumpy2.chart.sample(4, 7)
    cj = christoffel(bumpy2.metric.jet(pts, 3))
    assert np.array_equal(cj.comp, cj.comp.swapaxes(2, 3))  # exact lower symmetry
    fd1 = central_diff(lambda q: christoffel(bumpy2.metric.jet(q, 1)).comp, pts)
    assert rel_err(cj.d1, fd1) < 1e-8
    fd2 = central_diff(lambda q: christoffel(bumpy2.metric.jet(q, 2)).d1, pts)
    assert rel_err(cj.d2, fd2) < 1e-7


def test_christoffel_jet_order_gates(bumpy2):
    pts = bumpy2.chart.sample(2, 8)
    cj = christoffel(bumpy2.metric.jet(pts, 1))
    with pytest.raises(JetOrderUnsupported):
        cj.require_order(1, "curvature")
    cj2 = christoffel(bumpy2.metric.jet(pts, 2))
    cj2.require_order(1, "curvature")
    with pytest.raises(JetOrderUnsupported):
        cj2.require_order(2, "curvature derivative")


def test_riemann_antisymmetry_and_derivative(bumpy2):
    pts = bumpy2.chart.sample(4, 9)
    cj = christoffel(bumpy2.metric.jet(pts, 3))
    r = riemann(cj)
    assert np.array_equal(r, -r.swapaxes(2, 3))  # exact by construction
    rd1 = riemann_d1(cj)
    fd = central_diff(lambda q: riemann(christoffel(bumpy2.metric.jet(q, 2))), pts)
    assert rel_err(rd1, fd) < 1e-7


def test_first_bianchi_identity(bumpy3):
    geo, _ = geometry(bumpy3, 6, 10)
    r = geo.riemann_rows()
    cyc = r + np.einsum("pljki->plijk", r) + np.einsum("plkij->plijk", r)
    assert np.max(np.abs(cyc)) < 1e-12


def test_lowered_curvature_pair_antisymmetry(bumpy3):
    # metric compatibility: g(R(X,Y)Z, W) = -g(R(X,Y)W, Z)
    geo, _ = geometry(bumpy3, 6, 11)
    rlow = np.einsum("plijk,plm->pijkm", geo.riemann_rows(), geo.g)
    assert np.max(np.abs(rlow + rlow.swapaxes(3, 4))) < 1e-12


def test_ricci_derivative_against_finite_differences(bumpy2):
    pts = bumpy2.chart.sample(4, 12)
    mj = bumpy2.metric.jet(pts, 3)
    inv = inverse_metric(mj)
    rd = ricci_data(christoffel(mj, inv), inv)

    def q_of(ptsq):
        mjq = bumpy2.metric.jet(ptsq, 2)
        invq = inverse_metric(mjq)
        return ricci_data(christoffel(mjq, invq), invq).q

    assert rel_err(rd.q_d1, central_diff(q_of, pts)) < 1e-7


def test_ricci_derivative_requires_order_three(bumpy2):
    geo, _ = geometry(bumpy2, 2, 13, order=2)
    with pytest.raises(JetOrderUnsupported):
        RicciOperatorEndoField(2).jet_geo(geo)


# ------------------------------------------------------ covariant derivative

def test_levi_civita_is_metric_compatible(bumpy3):
    geo, _ = geometry(bumpy3, 6, 14, order=1)
    mj = geo.metric
    # (nabla_i g)_{jk} = d_i g_jk - Gamma^m_{ij} g_mk - Gamma^m_{ik} g_jm
    nab = (
        mj.d1
        - np.einsum("pmij,pmk->pijk", geo.gamma, mj.comp)
        - np.einsum("pmik,pjm->pijk", geo.gamma, mj.comp)
    )
    assert np.max(np.abs(nab)) < 1e-13


def test_cov_deriv_product_rule(bumpy2):
    rng = np.random.default_rng(15)
    eta = PolynomialOneFormField(2, [random_polynomial(2, rng, 2) for _ in range(2)])
    f = random_polynomial(2, rng, 2)
    scaled = PolynomialOneFormField(2, [f * c for c in eta.comps])
    pts = bumpy2.chart.sample(5, 16)
    geo = PointGeometry(bumpy2.chart, bumpy2.metric, pts, order=1)
    j, js = eta.jet(pts), scaled.jet(pts)
    fval = f.eval(pts)
    fgrad = np.stack([f.deriv(i).eval(pts) for i in range(2)], axis=1)
    lhs = cov_deriv_oneform(js.comp, js.d1, geo.gamma)
    rhs = np.einsum("pi,pj->pij", fgrad, j.comp) + fval[:, None, None] * cov_deriv_oneform(
        j.comp, j.d1, geo.gamma
    )
    assert rel_err(lhs, rhs) < 1e-12


def test_cov_deriv_lowers_to_oneform_consistently(bumpy2):
    # raising then differentiating agrees with differentiating then raising
    rng = np.random.default_rng(17)
    eta = PolynomialOneFormField(2, [random_polynomial(2, rng, 2) for _ in range(2)])
    pts = bumpy2.chart.sample(5, 18)
    geo = PointGeometry(bumpy2.chart, bumpy2.metric, pts, order=1)
    j = eta.jet(pts)
    nab_eta = cov_deriv_oneform(j.comp, j.d1, geo.gamma)
    from affconn.connection import sharp

    xi = sharp(j, geo.inv)
    nab_xi = cov_deriv_vector(xi.comp, xi.d1, geo.gamma)
    assert rel_err(np.einsum("pik,pkj->pij", nab_xi, geo.g), nab_eta) < 1e-12


def test_cov_deriv_endo_of_identity_vanishes(bumpy2):
    pts = bumpy2.chart.sample(4, 19)
    geo = PointGeometry(bumpy2.chart, bumpy2.metric, pts, order=1)
    comp = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    d1 = np.zeros((4, 2, 2, 2))
    assert np.max(np.abs(cov_deriv_endo(comp, d1, geo.gamma))) < 1e-15


def test_cov_deriv_endo_product_rule(bumpy2):
    # phi = xi (x) eta gives nabla phi = nabla xi (x) eta + xi (x) nabla eta
    rng = np.random.default_rng(20)
    a = [random_polynomial(2, rng, 2) for _ in range(2)]
    b = [random_polynomial(2, rng, 2) for _ in range(2)]
    phi = PolynomialEndoField(2, [[a[i] * b[j] for j in range(2)] for i in range(2)])
    pts = bumpy2.chart.sample(5, 21)
    geo = PointGeometry(bumpy2.chart, bumpy2.metric, pts, order=1)
    pj = phi.jet(pts)
    nab_phi = cov_deriv_endo(pj.comp, pj.d1, geo.gamma)

    av = np.stack([c.eval(pts) for c in a], axis=1)
    ad = np.stack([np.stack([c.deriv(k).eval(pts) for c in a], axis=1) for k in range(2)], axis=1)
    bj = PolynomialOneFormField(2, b).jet(pts)
    nab_a = ad + np.einsum("pkim,pm->pki", geo.gamma.transpose(0, 2, 1, 3), av)
    nab_b = cov_deriv_oneform(bj.comp, bj.d1, geo.gamma)
    rhs = np.einsum("pki,pj->pkij", nab_a, bj.comp) + np.einsum("pi,pkj->pkij", av, nab_b)
    assert rel_err(nab_phi, rhs) < 1e-12


def test_cov_deriv_dispatcher(bumpy2):
    pts = bumpy2.chart.sample(3, 22)
    mj = bumpy2.metric.jet(pts, 1)
    cj = christoffel(mj)
    comp = np.zeros((3, 2))
    d1 = np.zeros((3, 2, 2))
    assert cov_deriv("oneform", comp, d1, cj).shape == (3, 2, 2)
    assert cov_deriv("vector", comp, d1, cj).shape == (3, 2, 2)
    with pytest.raises(ValueError):
        cov_deriv("spinor", comp, d1, cj)


# ------------------------------------------------------------ PointGeometry

def test_point_geometry_caches_computations(bumpy2):
    geo, _ = geometry(bumpy2, 3, 23)
    assert geo.ricci is geo.ricci
    assert geo.inv is geo.inv
    assert geo.gamma is geo.gamma


def test_point_geometry_order_gates(bumpy2):
    geo, _ = geometry(bumpy2, 3, 24, order=1)
    geo.gamma  # order 1 suffices for the symbols themselves
    with pytest.raises(JetOrderUnsupported):
        geo.riemann_rows()
    with pytest.raises(JetOrderUnsupported):
        geo.ricci
    geo2, _ = geometry(bumpy2, 3, 24, order=2)
    assert geo2.ricci.q_d1 is None  # derivative needs order 3
    geo3, _ = geometry(bumpy2, 3, 24, order=3)
    assert geo3.ricci.q_d1 is not None


def test_the_inverse_metric_builds_d2_only_at_order_three(bumpy2):
    # d2(g^-1) has one reader, Christoffel's d2, which needs the metric's d3
    geo2, pts = geometry(bumpy2, 3, 25, order=2)
    assert geo2.inv.d1 is not None and geo2.inv.d2 is None
    cj2 = geo2.christoffel_rows(_whole, 2)
    assert cj2.d1 is not None and cj2.d2 is None
    assert inverse_metric(bumpy2.metric.jet(pts, 2)).d2 is None
    geo3, _ = geometry(bumpy2, 3, 25, order=3)
    assert geo3.inv.d2 is not None and geo3.christoffel_rows(_whole, 3).d2 is not None
    assert np.array_equal(geo3.inv.d1, geo2.inv.d1)
