"""The per-run evaluation memo: ``fields._evaluation_context`` and ``_memo``.

Inside a context each field's jet, and the derived data the two curvature
paths key through the memo, is computed once per (owners, point batch,
order); outside one nothing is kept.  These tests pin what an entry may be
shared by, that cached arrays cannot be written, and that nothing outlives
the outermost context.
"""

import gc
import weakref

import numpy as np
import pytest

from affconn import (
    PolynomialExpr,
    PolynomialOneFormField,
    build_case,
    curvature_direct,
    evaluate_spec,
    fields,
    needed_order,
    random_spec,
)
from affconn.fields import _evaluation_context


def one_form(n, *constants):
    return PolynomialOneFormField(n, [PolynomialExpr.constant(n, c) for c in constants])


def memo_keys() -> set:
    return set(fields._MEMO.get())


def test_outside_a_context_every_call_computes_afresh(bumpy2):
    pts = bumpy2.chart.sample(4, 1)
    u = one_form(2, 1.0, 2.0)
    first, second = u.jet(pts), u.jet(pts)
    assert first is not second
    assert np.array_equal(first.comp, second.comp)
    first.comp[0, 0] = 5.0  # a fresh jet belongs to its caller
    assert fields._MEMO.get() is None


def test_inside_a_context_a_jet_is_computed_once(bumpy2):
    pts = bumpy2.chart.sample(4, 1)
    u = one_form(2, 1.0, 2.0)
    with _evaluation_context():
        jet = u.jet(pts)
        assert u.jet(pts.copy()) is jet  # the batch is matched by its values
        assert bumpy2.metric.jet(pts, order=2) is bumpy2.metric.jet(pts, order=2)
        assert bumpy2.metric.jet(pts, order=2) is not bumpy2.metric.jet(pts, order=1)
    assert u.jet(pts) is not jet


def test_a_nested_context_joins_the_enclosing_one(bumpy2):
    pts = bumpy2.chart.sample(4, 1)
    u = one_form(2, 1.0, 2.0)
    with _evaluation_context():
        jet = u.jet(pts)
        with _evaluation_context():
            assert u.jet(pts) is jet
        assert u.jet(pts) is jet  # the inner exit dropped nothing


def test_two_point_batches_never_share_an_entry(bumpy2):
    pts_a = bumpy2.chart.sample(5, 2)
    pts_b = bumpy2.chart.sample(5, 3)
    spec = random_spec(bumpy2.chart, 4)
    with _evaluation_context():
        a = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts_a, order=2)
        b = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts_b, order=2)
        r_b = curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts_b)
    assert a.u is not b.u and a.geo is not b.geo and a.split is not b.split
    alone = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts_b, order=2)
    for got, want in ((b.gamma_tilde, alone.gamma_tilde), (b.u_sharp.d1, alone.u_sharp.d1),
                      (b.split.phi1_d1, alone.split.phi1_d1), (b.geo.riemann.r, alone.geo.riemann.r)):
        assert np.array_equal(got, want)
    assert np.array_equal(r_b, curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts_b))


def test_a_reused_id_never_hits_a_dead_fields_entry(bumpy2):
    # with_zeroed and diagnose's binding search make short-lived fields; an
    # entry holds its owners, so a new field cannot take a dead one's id.
    pts = bumpy2.chart.sample(3, 4)
    with _evaluation_context():
        for k in range(50):
            assert one_form(2, float(k), 0.0).jet(pts).comp[0, 0] == k
        spec = random_spec(bumpy2.chart, 5)
        for name in ("u", "u1", "u2", "phi"):
            zeroed = spec.with_zeroed(name)
            frame = evaluate_spec(bumpy2.chart, bumpy2.metric, zeroed, pts)
            assert not np.any(getattr(frame, name).comp)


def test_an_entry_keeps_its_owner_alive_until_the_context_exits(bumpy2):
    pts = bumpy2.chart.sample(3, 4)
    u = one_form(2, 1.0, 2.0)
    owner = weakref.ref(u)
    with _evaluation_context():
        u.jet(pts)
        del u
        gc.collect()
        assert owner() is not None
    gc.collect()
    assert owner() is None


def test_an_in_place_write_into_a_cached_array_raises(bumpy2):
    pts = bumpy2.chart.sample(3, 5)
    spec = random_spec(bumpy2.chart, 6)
    with _evaluation_context():
        frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=2)
        cached = [
            frame.u.comp, frame.u.d1, frame.f1.value, frame.f1.grad, frame.phi.d1,
            frame.geo.metric.d2, frame.geo.inv.d1, frame.geo.gamma, frame.geo.riemann.r,
            frame.split.phi1, frame.split.Phi1_d1, frame.u_sharp.comp, frame.u2_sharp.d1,
        ]
        for arr in cached:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1.0
        frame.h[0] += 1.0  # H is computed afresh on every call
    assert np.array_equal(pts, bumpy2.chart.sample(3, 5))
    pts[0, 0] = 0.5  # the caller's points are never frozen


def path_keys(chart, metric, spec, pts, path) -> set:
    with _evaluation_context():
        if path == "formula":
            evaluate_spec(chart, metric, spec, pts, order=needed_order(spec))
        else:
            curvature_direct(chart, metric, spec, pts)
        return memo_keys()


@pytest.mark.parametrize("case", [None, "2", "5"])
def test_the_formula_and_the_oracle_share_only_raw_jets(bumpy2, case):
    if case is None:
        spec = random_spec(bumpy2.chart, 7)
    else:
        omega = one_form(2, 0.3, -0.2)
        phi = fields.PolynomialEndoField(2, [[PolynomialExpr.coordinate(2, i)] * 2 for i in range(2)])
        bindings = {"u": omega} if case == "2" else {"u": omega, "phi": phi}
        spec = build_case(case, bindings, bumpy2)
    pts = bumpy2.chart.sample(4, 8)
    formula = path_keys(bumpy2.chart, bumpy2.metric, spec, pts, "formula")
    oracle = path_keys(bumpy2.chart, bumpy2.metric, spec, pts, "oracle")
    shared = formula & oracle
    assert shared and {key[0] for key in shared} == {"jet"}
    assert {key[0] for key in formula - shared} == {"geometry", "split_phi", "sharp"}
    assert {key[0] for key in oracle - shared} == {
        "oracle_inverse", "oracle_gamma", "oracle_phi_split", "oracle_sharp", "oracle_rec",
    }


def test_one_context_gives_the_oracle_nothing_but_raw_jets_from_the_formula(bumpy2):
    spec = random_spec(bumpy2.chart, 9)
    pts = bumpy2.chart.sample(4, 10)
    with _evaluation_context():
        evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=needed_order(spec))
        before = memo_keys()
        curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts)
        added = memo_keys() - before
    # every raw jet the oracle asks for is a hit; it adds only its own data
    assert {key[0] for key in added} == {
        "oracle_inverse", "oracle_gamma", "oracle_phi_split", "oracle_sharp", "oracle_rec",
    }
