"""Closed-form curvature of the deformed connection against a direct oracle."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn import (
    BadParams,
    ConnectionSpec,
    Corruption,
    H_TERMS,
    IdentityEndoField,
    PolynomialOneFormField,
    PolynomialScalarField,
    build_case,
    compare_curvature,
    curvature_direct,
    curvature_formula,
    curvatures,
    diagnose,
    evaluate_spec,
    max_abs,
    needed_order,
    norm_residual,
    preset_manifold,
    random_spec,
)
from affconn import connection, curvature, fields, levi_civita
from affconn.cases import RicciOperatorEndoField
from affconn.curvature import GROUPS, _jein, eta_helpers, exterior_2du, mu_tensor, r0
from affconn.fields import Jet, PolynomialEndoField, PolynomialExpr, random_polynomial
from conftest import central_diff, rel_err, same_bits

x1 = PolynomialExpr.coordinate(2, 0)
x2 = PolynomialExpr.coordinate(2, 1)
zero2 = PolynomialExpr.zero(2)


def identity_phi_frame(order=2):
    man = preset_manifold("euclidean", {"n": 2})
    spec = ConnectionSpec.build(
        2, u=PolynomialOneFormField(2, [zero2, x1]), phi=IdentityEndoField(2)
    )
    pts = np.array([[1.0, 0.0]])
    return man, spec, evaluate_spec(man.chart, man.metric, spec, pts, order=order)


def double_recurrence_spec():
    omega = PolynomialOneFormField(2, [x2, zero2])
    return ConnectionSpec.build(
        2,
        f1=PolynomialScalarField.constant(2, -1.0),
        f2=PolynomialScalarField.constant(2, -1.0),
        u1=omega,
        u2=omega,
    )


# ---------------------------------------------------------------- helpers

def test_eta_helper_matrix_on_identity_phi_fixture():
    _, _, frame = identity_phi_frame()
    eh = eta_helpers(frame.u, frame)
    assert np.array_equal(eh.alpha[0], [[0.5, 1.0], [0.0, -0.5]])


def test_mu_vanishes_for_identity_phi():
    _, _, frame = identity_phi_frame()
    assert max_abs(mu_tensor(frame)) == 0.0


def test_r0_antisymmetrizes_its_vector_slots():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3, 2, 2))
    g = g + g.swapaxes(1, 2)
    x, y, z = (rng.normal(size=(3, 2)) for _ in range(3))
    out = r0(g, x, y, z)
    flipped = r0(g, y, x, z)
    assert rel_err(out, -flipped) < 1e-14
    # flat metric, orthonormal slots: R0(e1, e2)e2 = e1
    e1 = np.tile([1.0, 0.0], (1, 1))
    e2 = np.tile([0.0, 1.0], (1, 1))
    flat = np.eye(2)[None]
    assert np.array_equal(r0(flat, e1, e2, e2), e1)


@pytest.mark.parametrize("m", [8, 256])
def test_exterior_derivative_layout_and_exactness(m):
    # u = x^2 dx^1 has 2du_{12} = d_1 u_2 - d_2 u_1 = -1
    u = PolynomialOneFormField(2, [x2, zero2])
    j = u.jet(np.zeros((1, 2)))
    du = exterior_2du(j)
    assert du[0, 0, 1] == -1.0 and du[0, 1, 0] == 1.0
    assert np.array_equal(du, -du.swapaxes(1, 2))
    # gradient one-forms are closed, and the cancellation is exact
    f = random_polynomial(2, np.random.default_rng(1), degree=4)
    df = PolynomialOneFormField(2, [f.deriv(0), f.deriv(1)])
    pts = np.random.default_rng(2).uniform(-1, 1, size=(m, 2))
    assert np.all(exterior_2du(df.jet(pts)) == 0.0)


def test_needed_order_accounts_for_derived_fields():
    assert needed_order(ConnectionSpec.zero(2)) == 2
    spec = ConnectionSpec.build(2, u=PolynomialOneFormField(2, [zero2, x1]),
                                phi=RicciOperatorEndoField(2))
    assert needed_order(spec) == 3


# ----------------------------------------------------------- degeneration

def test_zero_spec_reduces_to_levi_civita_curvature(bumpy2):
    spec = ConnectionSpec.zero(2)
    pts = bumpy2.chart.sample(6, 3)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=2)
    r, groups = curvature_formula(frame)
    assert norm_residual(r, frame.geo.riemann.r) < 1e-15
    assert all(np.all(groups[name] == 0.0) for name in GROUPS if name != "riemann")
    direct = curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts)
    assert norm_residual(direct, frame.geo.riemann.r) < 1e-12


def test_identity_phi_fixture_activates_only_its_groups():
    _, _, frame = identity_phi_frame()
    _, groups = curvature_formula(frame)
    live = sorted(name for name, v in groups.items() if max_abs(v) > 0.0)
    assert live == ["a_phi1", "alpha_phi1"]


def test_curvature_values_double_recurrence_fixture():
    man = preset_manifold("euclidean", {"n": 2})
    spec = double_recurrence_spec()
    pts = np.array([[0.0, 1.0]])
    frame = evaluate_spec(man.chart, man.metric, spec, pts, order=2)
    r, _ = curvature_formula(frame)
    assert r[0, 0, 0, 1, 0] == -2.0  # first component of R(d1,d2)d1
    assert r[0, 1, 0, 1, 0] == -1.0  # second component
    direct = curvature_direct(man.chart, man.metric, spec, pts)
    assert norm_residual(r, direct) < 1e-14


# ------------------------------------------------------- formula vs oracle

def test_formula_matches_direct_oracle_on_all_presets(flat2, flat3, sphere, halfplane, bumpy2, bumpy3):
    for k, man in enumerate((flat2, flat3, sphere, halfplane, bumpy2, bumpy3)):
        spec = random_spec(man.chart, 300 + k)
        pts = man.chart.sample(8, 400 + k)
        for rep in compare_curvature(man.chart, man.metric, spec, pts):
            assert rep.residual < 1e-8


def test_curvature_is_antisymmetric_in_the_plane_slots(bumpy2):
    spec = random_spec(bumpy2.chart, 17)
    pts = bumpy2.chart.sample(5, 18)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=2)
    r, _ = curvature_formula(frame)
    assert norm_residual(r, -r.swapaxes(2, 3)) < 1e-14
    direct = curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts)
    assert norm_residual(direct, -direct.swapaxes(2, 3)) < 1e-14


def display_line_groups(frame) -> dict:
    """Every group but ``riemann`` with each term its own einsum, summed as
    the display lines write it, one new array per operation: the reference
    that one einsum per swapped pair, summed in place, must match bit for
    bit."""
    g, eye, split = frame.geo.g, np.eye(frame.geo.n), frame.split
    u, u1, u2 = frame.u.comp, frame.u1.comp, frame.u2.comp
    big_u, big_u1, big_u2 = frame.u_sharp.comp, frame.u1_sharp.comp, frame.u2_sharp.comp
    f1, f2, gf1, gf2 = frame.f1.value, frame.f2.value, frame.f1.grad, frame.f2.grad
    mu = mu_tensor(frame)
    mud = mu - mu.swapaxes(2, 3)
    gmud = np.einsum("pmij,pmk->pijk", mud, g)
    rec = (
        np.einsum("pj,lk->pljk", u1, eye, order="F")
        + np.einsum("pk,lj->pljk", u1, eye, order="F")
        - np.einsum("pjk,pl->pljk", g, big_u1)
    )
    hu, hu1, hu2 = (eta_helpers(eta, frame) for eta in (frame.u, frame.u1, frame.u2))
    r0_phix_u1 = np.einsum("pk,pli->plik", u1, frame.phi.comp) - np.einsum(
        "pik,pl->plik", split.Phi, big_u1
    )
    nab2 = levi_civita.cov_deriv_endo(split.phi2, split.phi2_d1, frame.geo.gamma)
    r0_x_u1_u1 = np.multiply(np.einsum("pm,pm->p", u1, big_u1)[:, None, None], eye,
                             order="F") - np.einsum("pi,pl->pli", u1, big_u1)
    r0_x_y_u1 = np.einsum("pj,li->plij", u1, eye, order="F") - np.einsum(
        "pi,lj->plij", u1, eye, order="F"
    )
    vec_f1f2 = (
        np.multiply(np.einsum("pm,pm->p", u2, big_u1)[:, None, None], eye, order="F")
        - np.einsum("pi,pl->pli", u1, big_u2)
        - np.einsum("pi,pl->pli", u2, big_u1)
    )
    inner_f1 = (
        np.einsum("pij,lk->plijk", exterior_2du(frame.u1), eye, order="F")
        - np.einsum("pjk,li->plijk", hu1.beta, eye, order="F")
        + np.einsum("pik,lj->plijk", hu1.beta, eye, order="F")
        - np.einsum("pjk,pil->plijk", g, hu1.bvec)
        + np.einsum("pik,pjl->plijk", g, hu1.bvec)
        + np.einsum("pj,plik->plijk", u, r0_phix_u1)
        - np.einsum("pi,pljk->plijk", u, r0_phix_u1)
    )
    inner_f2 = (
        np.einsum("pjk,pi,pl->plijk", split.Phi, u, big_u2)
        - np.einsum("pik,pj,pl->plijk", split.Phi, u, big_u2)
        - np.einsum("pjk,pil->plijk", g, hu2.bvec)
        + np.einsum("pik,pjl->plijk", g, hu2.bvec)
    )
    inner_f1sq = (
        np.einsum("pjk,pli->plijk", g, r0_x_u1_u1)
        - np.einsum("pik,plj->plijk", g, r0_x_u1_u1)
        - np.einsum("pk,plij->plijk", u1, r0_x_y_u1)
    )
    inner_f2sq = np.einsum("pjk,pi,pl->plijk", g, u2, big_u2) - np.einsum(
        "pik,pj,pl->plijk", g, u2, big_u2
    )
    inner_f1f2 = np.einsum("pjk,pli->plijk", g, vec_f1f2) - np.einsum(
        "pik,plj->plijk", g, vec_f1f2
    )
    return {
        "du_phi2": -np.einsum("pij,plk->plijk", exterior_2du(frame.u), split.phi2),
        "r0_mu": -np.einsum("pijk,pl->plijk", gmud, big_u) + np.einsum("pk,plij->plijk", u, mud),
        "xf1_block": -np.einsum("pi,pljk->plijk", gf1, rec),
        "yf1_block": np.einsum("pj,plik->plijk", gf1, rec),
        "alpha_phi1": -np.einsum("pjk,pli->plijk", hu.alpha, split.phi1)
        + np.einsum("pik,plj->plijk", hu.alpha, split.phi1),
        "a_phi1": -np.einsum("pjk,pil->plijk", split.Phi1, hu.avec)
        + np.einsum("pik,pjl->plijk", split.Phi1, hu.avec),
        "nabla_phi2": np.einsum("pi,pjlk->plijk", u, nab2) - np.einsum("pj,pilk->plijk", u, nab2),
        "f1_block": -f1[:, None, None, None, None] * inner_f1,
        "f2_block": f2[:, None, None, None, None] * inner_f2,
        "f1_sq": -(f1 * f1)[:, None, None, None, None] * inner_f1sq,
        "f2_sq": (f2 * f2)[:, None, None, None, None] * inner_f2sq,
        "f1_f2": (f1 * f2)[:, None, None, None, None] * inner_f1f2,
        "grad_f2": -np.einsum("pi,pjk,pl->plijk", gf2, g, big_u2)
        + np.einsum("pj,pik,pl->plijk", gf2, g, big_u2),
    }


@pytest.mark.parametrize("name, params", [
    ("bumpy", {"n": 3, "eps": 0.05, "seed": 12}),
    ("bumpy", {"n": 4, "eps": 0.05, "seed": 13}),
    ("sphere2", {"r": 1.0}),
])
def test_one_einsum_per_swapped_pair_keeps_every_bit(name, params):
    # each pair is one einsum and its swapped view; nothing may move a bit
    man = preset_manifold(name, params)
    spec = random_spec(man.chart, 41)
    frame = evaluate_spec(man.chart, man.metric, spec, man.chart.sample(256, 42), order=2)
    total, groups = curvature_formula(frame)
    expected = {"riemann": frame.geo.riemann.r} | display_line_groups(frame)
    assert all(same_bits(groups[group], expected[group]) for group in GROUPS)
    expected_total = np.zeros_like(total)
    for group in GROUPS:
        expected_total += expected[group]
    assert same_bits(total, expected_total)


# ---------------------------------------------------------- oracle blocks


RANDOM_ORACLE_CASES = {
    "bumpy3": ("bumpy", {"n": 3, "eps": 0.05, "seed": 12}, 300),
    "bumpy4": ("bumpy", {"n": 4, "eps": 0.05, "seed": 13}, 301),
    "sphere2": ("sphere2", {"r": 1.0}, 300),
    "half_plane": ("half_plane", {"k": 1.0}, 300),
}


def oracle_input(name):
    """(manifold, spec, points) for one blocked-oracle case."""
    if name == "ricci":  # phi derived from the geometry, at metric order 3
        man = preset_manifold("bumpy", {"n": 3, "eps": 0.05, "seed": 12})
        rng = np.random.default_rng(45)
        omega = PolynomialOneFormField(3, [random_polynomial(3, rng) for _ in range(3)])
        return man, build_case("2", {"u": omega}, man), man.chart.sample(300, 46)
    if name == "case17":  # one field bound to both u1 and u2
        man = preset_manifold("sphere2", {"r": 1.0})
        omega = PolynomialOneFormField(2, [x2, x1 * x2])
        return man, build_case("17", {"omega": omega}, man), man.chart.sample(300, 47)
    preset, params, m = RANDOM_ORACLE_CASES[name]
    man = preset_manifold(preset, params)
    return man, random_spec(man.chart, 43), man.chart.sample(m, 44)


def assert_block_count(m, n, block_bytes):
    """The patched ``fields._BLOCK_BYTES`` takes effect: one point per
    block, 7 per block, or the batch as it is."""
    blocks = fields._blocks(m, n**4)
    want = {1: m, 7 * 8 * n**4: -(-m // 7), 2**62: 1}[block_bytes]
    assert len(blocks) == want and (want > 1) == (blocks[0] is not fields._whole)


@pytest.mark.parametrize("name", ["bumpy3", "bumpy4", "sphere2", "half_plane", "ricci", "case17"])
def test_oracle_blocks_keep_every_bit(monkeypatch, name):
    # Each point's arithmetic must not depend on its block: one point per
    # block, 7 and one block must agree bit for bit with the default.  The
    # last block is short at 7 points of 300 and at the default 128 of 301.
    man, spec, pts = oracle_input(name)
    n = man.chart.n
    corruptions = [None]
    if name == "bumpy3":
        corruptions += [Corruption(term) for term in H_TERMS]
    for corrupt in corruptions:
        default = curvature_direct(man.chart, man.metric, spec, pts, corrupt=corrupt)
        for block_bytes in (1, 7 * 8 * n**4, 2**62):
            monkeypatch.setattr(fields, "_BLOCK_BYTES", block_bytes)
            assert_block_count(len(pts), n, block_bytes)
            blocked = curvature_direct(man.chart, man.metric, spec, pts, corrupt=corrupt)
            assert same_bits(blocked, default), (corrupt, block_bytes)
        monkeypatch.undo()


def test_the_oracle_works_in_blocks_on_jets_of_the_whole_batch(monkeypatch):
    man, spec, _ = oracle_input("bumpy4")
    pts = man.chart.sample(2000, 48)
    curvature_direct(man.chart, man.metric, spec, pts)  # plans every jet
    batches = []
    apply = fields._JetPlan.apply

    def counted(plan, pts):
        batches.append(len(pts))
        return apply(plan, pts)

    monkeypatch.setattr(fields._JetPlan, "apply", counted)
    tracemalloc.start()
    try:
        r = curvature_direct(man.chart, man.metric, spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the metric and the six bindings, each once on the whole batch
    assert batches == [2000] * 7
    # 15.4x in one whole-batch block; the jets of the whole batch are most
    # of what is left
    assert peak < 6 * r.nbytes, peak / r.nbytes


@pytest.mark.parametrize("name", ["bumpy3", "bumpy4", "sphere2", "half_plane", "ricci", "case17"])
def test_formula_blocks_keep_every_bit(monkeypatch, name):
    # As the oracle's: one point per block, 7 and one block must agree bit
    # for bit with the default.  A read group is the whole batch's, each
    # term its own einsum, and the groups sum to the total in GROUPS order.
    man, spec, pts = oracle_input(name)
    n = man.chart.n
    order = needed_order(spec)
    frame = evaluate_spec(man.chart, man.metric, spec, pts, order=order)
    expected = {"riemann": frame.geo.riemann.r} | display_line_groups(frame)
    corruptions = [None]
    if name == "bumpy3":
        corruptions += [Corruption(term) for term in GROUPS]
    for corrupt in corruptions:
        frame = evaluate_spec(man.chart, man.metric, spec, pts, order=order, corrupt=corrupt)
        default, groups = curvature_formula(frame)
        summed = np.zeros_like(default)
        for group in GROUPS:
            want = expected[group]
            if corrupt is not None and corrupt.name == group:
                want = 2.0 * want
            assert same_bits(groups[group], want), (corrupt, group)
            summed += groups[group]
        assert same_bits(summed, default), corrupt
        for block_bytes in (1, 7 * 8 * n**4, 2**62):
            monkeypatch.setattr(fields, "_BLOCK_BYTES", block_bytes)
            assert_block_count(len(pts), n, block_bytes)
            blocked, _ = curvature_formula(frame)
            assert same_bits(blocked, default), (corrupt, block_bytes)
        monkeypatch.undo()


def test_the_formula_sums_its_groups_block_by_block():
    man, spec, _ = oracle_input("bumpy4")
    frame = evaluate_spec(man.chart, man.metric, spec, man.chart.sample(2000, 48), order=2)
    curvature_formula(frame)
    tracemalloc.start()
    try:
        r, _ = curvature_formula(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 15.0x with the 14 groups built on the whole batch; the total and the
    # helpers of rank at most 4 are most of what is left
    assert peak < 6 * r.nbytes, peak / r.nbytes


def test_the_formula_leaves_no_whole_batch_levi_civita_curvature():
    # 3.2x when the riemann group read geo.riemann, which kept the
    # Christoffel 1-jet and R of the whole batch on the geometry
    man, spec, _ = oracle_input("bumpy4")
    frame = evaluate_spec(man.chart, man.metric, spec, man.chart.sample(2000, 48), order=2)
    tracemalloc.start()
    try:
        total, _ = curvature_formula(frame)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the total and the geometry's symbols, a quarter of it at n = 4
    assert held <= 1.5 * total.nbytes, held / total.nbytes
    assert not {"christoffel", "riemann"} & set(vars(frame.geo))


def test_a_caller_keeping_groups_holds_no_helper():
    # compare_op keeps ``groups`` while the oracle runs: the mapping must not
    # keep the whole-batch helpers alive (2.19x if it held them)
    man, spec, _ = oracle_input("bumpy4")
    frame = evaluate_spec(man.chart, man.metric, spec, man.chart.sample(2000, 48), order=2)
    curvature_formula(frame)  # the geometry's own lazy data, read once
    tracemalloc.start()
    try:
        total, groups = curvature_formula(frame)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * total.nbytes, held / total.nbytes


def test_compare_curvature_reports_per_point(bumpy2):
    spec = random_spec(bumpy2.chart, 19)
    pts = bumpy2.chart.sample(4, 20)
    reports = compare_curvature(bumpy2.chart, bumpy2.metric, spec, pts)
    assert len(reports) == 4
    for i, rep in enumerate(reports):
        assert np.array_equal(rep.point, pts[i])
        assert sorted(rep.term_contributions) == sorted(GROUPS)
        assert rep.formula.shape == (2, 2, 2, 2)
        assert rep.residual < 1e-8


# ------------------------------------------------------------- corruption

def both_paths(man, spec, pts, corrupt=None):
    """``curvatures`` of the frame of ``spec`` at ``pts`` with the fault ``corrupt``."""
    return curvatures(evaluate_spec(man.chart, man.metric, spec, pts, order=2, corrupt=corrupt))


def test_curvatures_runs_the_formula_and_the_oracle(bumpy2):
    spec = random_spec(bumpy2.chart, 21)
    pts = bumpy2.chart.sample(4, 22)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=2)
    total, groups, direct = curvatures(frame)
    formula_total, formula_groups = curvature_formula(frame)
    assert same_bits(total, formula_total)
    assert all(same_bits(groups[name], formula_groups[name]) for name in GROUPS)
    assert same_bits(direct, curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts))


def test_group_corruption_moves_the_formula_only(bumpy2):
    spec = random_spec(bumpy2.chart, 21)
    pts = bumpy2.chart.sample(4, 22)
    clean, _, clean_direct = both_paths(bumpy2, spec, pts)
    hot, _, hot_direct = both_paths(bumpy2, spec, pts, Corruption("f1_block"))
    assert max_abs(hot - clean) > 1e-6
    assert np.array_equal(clean_direct, hot_direct)


def test_h_corruption_moves_the_oracle_only(bumpy2):
    spec = random_spec(bumpy2.chart, 23)
    pts = bumpy2.chart.sample(4, 24)
    clean, _, clean_direct = both_paths(bumpy2, spec, pts)
    hot, _, hot_direct = both_paths(bumpy2, spec, pts, Corruption("h_f1"))
    assert np.array_equal(clean, hot)
    assert max_abs(hot_direct - clean_direct) > 1e-6


@pytest.mark.parametrize(
    "name, params, seed",
    [("sphere2", {"r": 1.0}, 100), ("sphere2", {"r": 3.0}, 101), ("half_plane", {"k": 1.0}, 102)],
)
def test_a_doubled_riemann_group_fails_on_curved_charts(name, params, seed):
    # |R~| spans orders of magnitude across one batch on these charts; a
    # batch-wide scale hid the doubled group below 1e-8, a per-point one
    # does not
    man = preset_manifold(name, params)
    spec = random_spec(man.chart, seed)
    pts = man.chart.sample(10, seed)
    order = needed_order(spec)
    frame = evaluate_spec(man.chart, man.metric, spec, pts, order=order)
    direct = curvature_direct(man.chart, man.metric, spec, pts)
    clean, _ = curvature_formula(frame)
    doubled, _ = curvature_formula(evaluate_spec(
        man.chart, man.metric, spec, pts, order=order, corrupt=Corruption("riemann")))
    assert norm_residual(clean, direct) <= 1e-8
    assert norm_residual(doubled, direct) > 1e-8


def test_unknown_corruption_term_is_rejected(bumpy2):
    # refused where the fault is made, so no path can run clean with a
    # mistyped name
    spec = random_spec(bumpy2.chart, 3)
    pts = bumpy2.chart.sample(5, 26)
    with pytest.raises(BadParams, match="unknown corruptible term 'h_f11'"):
        Corruption("h_f11")
    with pytest.raises(BadParams):
        curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption("h_f11"))


# --------------------------------------------------------------- diagnosis

def test_diagnose_passes_on_clean_input(bumpy2):
    spec = random_spec(bumpy2.chart, 27)
    pts = bumpy2.chart.sample(5, 28)
    report = diagnose(bumpy2.chart, bumpy2.metric, spec, pts)
    assert report["pass"] is True
    assert report["minimal_failing_bindings"] == []
    assert all(row["pass"] for row in report["binding_ablation"])


@pytest.mark.parametrize(
    "term,expected_bindings",
    [
        ("alpha_phi1", {"u", "phi"}),
        ("h_f1", {"f1", "u1"}),
        ("h_f2", {"f2", "u2"}),
        ("du_phi2", {"u", "phi"}),
    ],
)
def test_diagnose_attributes_injected_faults(bumpy2, term, expected_bindings):
    spec = random_spec(bumpy2.chart, 29)
    pts = bumpy2.chart.sample(6, 30)
    report = diagnose(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption(term))
    assert report["pass"] is False
    top = report["term_table"][0]
    assert top["term"] == term
    assert top["explained_fraction"] > 0.999
    assert set(report["minimal_failing_bindings"]) == expected_bindings
    # keeping only the named bindings must still fail; that is minimality's other half
    kept = report["minimal_failing_bindings"]
    stripped = spec
    for name in ("u", "u1", "u2", "f1", "f2", "phi"):
        if name not in kept:
            stripped = stripped.with_zeroed(name)
    for rep in compare_curvature(bumpy2.chart, bumpy2.metric, stripped, pts, corrupt=Corruption(term)):
        pass
    assert max(r.residual for r in compare_curvature(
        bumpy2.chart, bumpy2.metric, stripped, pts, corrupt=Corruption(term))) > 1e-8


def test_diagnose_alignment_sign_separates_the_sides(bumpy2):
    # formula-side faults align positively, oracle-side faults negatively
    spec = random_spec(bumpy2.chart, 31)
    pts = bumpy2.chart.sample(5, 32)
    for term, sign in (("f2_block", 1.0), ("h_u_phi1", -1.0)):
        report = diagnose(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption(term))
        top = report["term_table"][0]
        assert top["term"] == term
        assert top["alignment"] == pytest.approx(sign, abs=1e-9)


@pytest.mark.parametrize("tolerance", [float("inf"), True, 5.0, -1.0, float("nan")])
def test_diagnose_refuses_a_tolerance_that_cannot_gate(bumpy2, tolerance):
    # inf, True and 5.0 would pass this failing comparison (residual 0.66)
    # and skip its ablation; -1.0 and nan could never pass one
    spec = random_spec(bumpy2.chart, 3)
    pts = bumpy2.chart.sample(5, 4)
    with pytest.raises(BadParams, match="tolerance"):
        diagnose(bumpy2.chart, bumpy2.metric, spec, pts, tolerance=tolerance,
                 corrupt=Corruption("h_f1"))


def test_diagnose_is_deterministic(bumpy2):
    spec = random_spec(bumpy2.chart, 33)
    pts = bumpy2.chart.sample(5, 34)
    a = diagnose(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption("r0_mu"))
    b = diagnose(bumpy2.chart, bumpy2.metric, spec, pts, corrupt=Corruption("r0_mu"))
    assert a == b


# ------------------------------------------------------------ the oracle's jets

# operand kinds: s scalar field, v one-form, e endomorphism, c constant matrix
JEIN_SPECS = {
    "pi,pkj->pkij": "ve",
    "pkm,pm->pk": "ev",
    "pmi,pmj->pij": "ee",
    "pji->pij": "e",
    "p,pij,pk->pkij": "sev",
    "pim,pmk,pk->pi": "eev",
    "pi,kj->pkij": "vc",
    "pkm,mj->pkj": "ec",
    "pi,ij,pj->p": "vcv",
}
# Factors have at most 3 terms with |c| <= 1 and |x| <= 1, so each is at most
# 3 and an output entry (up to 3 factors, up to 2 summed indices over n <= 3)
# at most 9 * 27 = 243.  Central differences with h = 1e-6 then carry a
# rounding error of about eps * 243 / 1e-6 ~ 5e-8 and a truncation error
# below 1e-10, so 5e-7 leaves a 10x margin; a dropped product-rule term is
# off by O(1).
JEIN_TOL = 5e-7


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(JEIN_SPECS)), st.sampled_from([2, 3]), st.data())
def test_jein_derivative_matches_central_differences(spec, n, data):
    poly = st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.floats(-1.0, 1.0)),
        max_size=3,
    ).map(lambda terms: PolynomialExpr(n, terms))
    fields = {
        "s": lambda: PolynomialScalarField(n, data.draw(poly)),
        "v": lambda: PolynomialOneFormField(n, [data.draw(poly) for _ in range(n)]),
        "e": lambda: PolynomialEndoField(
            n, [[data.draw(poly) for _ in range(n)] for _ in range(n)]
        ),
        "c": lambda: np.array(
            data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
        ).reshape(n, n),
    }
    operands = [fields[kind]() for kind in JEIN_SPECS[spec]]
    pts = np.array(
        data.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                           min_size=1, max_size=4))
    )

    def jets(q):
        out = []
        for o in operands:
            if isinstance(o, np.ndarray):
                out.append(o)
            elif isinstance(o, PolynomialScalarField):
                sj = o.jet(q)
                out.append(Jet(sj.value, sj.grad))
            else:
                out.append(o.jet(q))
        return out

    got = _jein(spec, *jets(pts))
    # a product of three factors may round in another order than einsum's
    want = np.einsum(spec, *[getattr(j, "comp", j) for j in jets(pts)])
    assert rel_err(got.comp, want) <= 4 * np.finfo(float).eps
    assert rel_err(got.d1, central_diff(lambda q: _jein(spec, *jets(q)).comp, pts)) < JEIN_TOL


def _code_names(code) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _code_names(const)
    return names


def test_oracle_shares_no_helper_with_the_formula_path():
    # the library path keeps its own hand-written derivatives
    for module in (connection, levi_civita):
        assert "_jein" not in inspect.getsource(module)
    shared = {
        "sharp", "split_phi", "inverse_metric", "christoffel",
        "eta_helpers", "mu_tensor", "PointFrame",
    }
    assert not _code_names(curvature_direct.__code__) & shared
