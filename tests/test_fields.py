"""Charts, polynomial algebra, field jets, metric presets."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn import (
    BadParams,
    Chart,
    ConstantMetricField,
    DimensionMismatch,
    HalfPlaneMetricField,
    IdentityEndoField,
    JetOrderUnsupported,
    MetricNotPositiveDefinite,
    PointOutsideDomain,
    PolynomialEndoField,
    PolynomialExpr,
    PolynomialMetricField,
    PolynomialOneFormField,
    PolynomialScalarField,
    SchemaError,
    Sphere2MetricField,
    UnknownPreset,
    build_case,
    evaluate_jets,
    evaluate_spec,
    fields,
    monomials_up_to,
    poly_from_json,
    preset_manifold,
    random_polynomial,
    random_spec,
)
from conftest import central_diff, rel_err, same_bits


# ---------------------------------------------------------------- charts

def unit_chart(n=2):
    return Chart(n, -np.ones(n), np.ones(n))


def test_chart_rejects_dimension_below_two():
    with pytest.raises(BadParams):
        Chart(1, np.array([0.0]), np.array([1.0]))


def test_chart_bound_length_must_match_dimension():
    with pytest.raises(DimensionMismatch):
        Chart(2, np.array([0.0]), np.array([1.0, 1.0]))


def test_chart_upper_must_exceed_lower():
    with pytest.raises(BadParams):
        Chart(2, np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_chart_contains_allows_boundary_slack():
    ch = unit_chart()
    assert ch.contains(np.array([[1.0 + 5e-13, 0.0]])).all()
    assert not ch.contains(np.array([[1.1, 0.0]])).any()


def test_chart_require_inside_names_the_point():
    ch = unit_chart()
    with pytest.raises(PointOutsideDomain) as exc:
        ch.require_inside(np.array([[2.0, 0.0]]))
    assert "2.0" in str(exc.value)


def test_chart_sample_is_seed_reproducible():
    ch = unit_chart()
    a = ch.sample(8, 7)
    b = ch.sample(8, 7)
    c = ch.sample(8, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert ch.contains(a).all()


def test_chart_sample_stays_within_bounds():
    ch = Chart(3, np.array([0.5, -2.0, 1.0]), np.array([0.6, -1.0, 4.0]))
    pts = ch.sample(200, 1)
    assert pts.shape == (200, 3)
    assert (pts >= ch.lower).all() and (pts <= ch.upper).all()


# ---------------------------------------------------- polynomial algebra

def test_monomial_enumeration_count_and_filter():
    mons = monomials_up_to(2, 2)
    assert len(mons) == 6
    assert (0, 0) in mons
    assert all(sum(e) >= 1 for e in monomials_up_to(2, 2, min_degree=1))


def test_polynomial_terms_are_canonically_ordered():
    p = PolynomialExpr(2, [((1, 0), 2.0), ((0, 0), 1.0)])
    q = PolynomialExpr(2, [((0, 0), 1.0), ((1, 0), 2.0)])
    assert list(p.terms) == list(q.terms)
    assert p == q
    assert hash(p) == hash(q)
    # construction order must not leak into evaluation
    pts = np.linspace(-1, 1, 7).reshape(-1, 1).repeat(2, axis=1)
    assert np.array_equal(p.eval(pts), q.eval(pts))


def test_polynomial_merges_terms_and_drops_zeros():
    p = PolynomialExpr(2, [((1, 1), 1.0), ((1, 1), -1.0), ((2, 0), 3.0)])
    assert p.terms == {(2, 0): 3.0}


def test_polynomial_eval_shapes():
    p = PolynomialExpr(2, [((1, 0), 2.0), ((0, 0), 1.0)])
    single = p.eval(np.array([3.0, 0.0]))
    assert np.ndim(single) == 0 and single == 7.0
    batch = p.eval(np.array([[3.0, 0.0], [0.0, 1.0]]))
    assert batch.shape == (2,) and batch[1] == 1.0


def test_polynomial_deriv_is_cached_and_correct():
    p = PolynomialExpr(2, [((2, 1), 4.0)])  # 4 x^2 y
    assert p.deriv(0) is p.deriv(0)
    assert p.deriv(0).terms == {(1, 1): 8.0}
    assert p.deriv(1).terms == {(2, 0): 4.0}
    assert p.deriv(0).deriv(0).deriv(0).is_zero


def test_polynomial_mixed_partials_commute_exactly():
    p = random_polynomial(3, np.random.default_rng(0), degree=4)
    assert p.deriv(0).deriv(1).terms == p.deriv(1).deriv(0).terms
    assert p.deriv(2).deriv(0).terms == p.deriv(0).deriv(2).terms


def test_polynomial_arithmetic_matches_pointwise():
    rng = np.random.default_rng(3)
    p = random_polynomial(2, rng, degree=3)
    q = random_polynomial(2, rng, degree=2)
    pts = np.random.default_rng(4).uniform(-1, 1, size=(20, 2))
    assert rel_err((p + q).eval(pts), p.eval(pts) + q.eval(pts)) < 1e-14
    assert rel_err((p * q).eval(pts), p.eval(pts) * q.eval(pts)) < 1e-14
    assert rel_err((p - q).eval(pts), p.eval(pts) - q.eval(pts)) < 1e-14


def test_polynomial_coerce_rejects_dimension_mismatch():
    p = PolynomialExpr(2, [((1, 0), 1.0)])
    q = PolynomialExpr(3, [((1, 0, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        p + q


int_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-4, 4).map(float),
    ),
    max_size=5,
).map(lambda ts: PolynomialExpr(2, ts))

int_points = st.lists(
    st.tuples(st.integers(-3, 3).map(float), st.integers(-3, 3).map(float)),
    min_size=1,
    max_size=4,
).map(np.array)


@settings(max_examples=60, deadline=None)
@given(int_polys, int_polys, int_points)
def test_integer_poly_algebra_is_exact(p, q, pts):
    # integer coefficients and integer points keep everything in exact floats
    assert np.array_equal((p + q).eval(pts), p.eval(pts) + q.eval(pts))
    assert np.array_equal((p * q).eval(pts), p.eval(pts) * q.eval(pts))


@settings(max_examples=60, deadline=None)
@given(int_polys, int_polys)
def test_product_rule_is_exact_on_integer_polys(p, q):
    for i in range(2):
        lhs = (p * q).deriv(i)
        rhs = p.deriv(i) * q + p * q.deriv(i)
        assert lhs.terms == rhs.terms


@settings(max_examples=60, deadline=None)
@given(int_polys)
def test_derivatives_come_out_canonical(p):
    # deriv skips the constructor: its terms must be what the constructor gives
    for i in range(2):
        d = p.deriv(i)
        assert list(d.terms.items()) == list(PolynomialExpr(2, d.terms).terms.items())
        assert d.deriv(0) is d.deriv(0)


# The package's own algebra builds canonical terms without the constructor's
# checks; each result must be what the validating constructor makes of the
# same raw terms, in content and in order.

json_terms = st.lists(
    st.fixed_dictionaries({
        "c": st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3), st.sampled_from([5e-324, 1e300])),
        "e": st.lists(st.integers(0, 2), min_size=3, max_size=3),
    }),
    max_size=8,
)


def validated(n, raw_terms):
    return list(PolynomialExpr(n, raw_terms).terms.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 1), json_terms, json_terms,
       st.floats(-1e3, 1e3))
def test_trusted_constructions_match_the_validating_constructor(seed, degree, low, a, b, s):
    n = 3
    p = random_polynomial(n, np.random.default_rng(seed), degree, min_degree=low)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(monomials_up_to(n, degree, low)))
    assert list(p.terms.items()) == validated(n, zip(monomials_up_to(n, degree, low), coeffs))
    q = poly_from_json(n, {"terms": a})
    r = poly_from_json(n, {"terms": b})
    for expr, raw in ((q, a), (r, b)):
        assert list(expr.terms.items()) == validated(n, [(t["e"], t["c"]) for t in raw])
    assert list(poly_from_json(n, s).terms.items()) == validated(n, [((0,) * n, s)])
    pt, qt, rt = (list(x.terms.items()) for x in (p, q, r))
    products = [(tuple(map(sum, zip(e1, e2))), c1 * c2) for e1, c1 in qt for e2, c2 in rt]
    cases = [
        (q + r, qt + rt),
        (q - r, qt + [(e, -c) for e, c in rt]),
        (-p, [(e, -c) for e, c in pt]),
        (q * r, products),
        (s * q, [(e, c * s) for e, c in qt]),
        (q * s, [(e, c * s) for e, c in qt]),
        (p + s, pt + [((0,) * n, s)]),
        (s - p, [((0,) * n, s)] + [(e, -c) for e, c in pt]),
        (PolynomialExpr.constant(n, s), [((0,) * n, s)]),
        (PolynomialExpr.coordinate(n, 1), [((0, 1, 0), 1.0)]),
        (PolynomialExpr.zero(n), []),
    ]
    for got, raw in cases:
        assert list(got.terms.items()) == validated(n, raw)
        assert all(type(c) is float for c in got.terms.values())
        assert all(type(k) is int for e in got.terms for k in e)


def test_validating_constructor_keeps_its_checks():
    for bad in ([((1,), 1.0)], [((1, -1), 1.0)], [((1, 0, 0), 1.0)]):
        with pytest.raises(BadParams) as exc:
            PolynomialExpr(2, bad)
        assert "bad exponent tuple" in str(exc.value)
    for make in (lambda: PolynomialExpr(0), lambda: PolynomialExpr.zero(0),
                 lambda: PolynomialExpr.constant(0, 1.0), lambda: poly_from_json(0, {"terms": []}),
                 lambda: random_polynomial(0, np.random.default_rng(0))):
        with pytest.raises(BadParams) as exc:
            make()
        assert "at least one variable" in str(exc.value)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"terms": [{"c": float("inf"), "e": [1, 0]}]}, "u[0].terms[0].c: expected a finite number"),
        (float("nan"), "u[0]: expected a finite number"),
        ({"terms": [{"c": 1.0, "e": [2**63, 0]}]},
         "u[0].terms[0].e: expected 2 integers from 0 to 2^63 - 1"),
        ({"terms": [{"c": 1.0, "e": [0, True]}]},
         "u[0].terms[0].e: expected 2 integers from 0 to 2^63 - 1"),
    ],
)
def test_poly_from_json_still_checks_before_trusting(obj, message):
    with pytest.raises(SchemaError) as exc:
        poly_from_json(2, obj, where="u[0]")
    assert str(exc.value) == message


def drawn_one_by_one(n, rng, degree=3, min_degree=0):
    """``random_polynomial`` as it was when each polynomial made its own
    ``rng.uniform`` call: the reference for the one-draw path."""
    monos = fields._monomials(n, degree, min_degree)
    coeffs = rng.uniform(-1.0, 1.0, size=len(monos)).tolist()
    return fields._canonical(n, {e: c for e, c in zip(monos, coeffs) if c != 0.0})


def terms(polys) -> list:
    return [list(p.terms.items()) for p in polys]


def test_one_draw_makes_the_polynomials_of_one_draw_per_polynomial():
    # random_spec draws all its coefficients at once and random_polynomial
    # is the one-polynomial case: each takes the numbers that one draw per
    # polynomial took, so it makes the same terms in the same order
    for seed in range(50):
        for n in (1, 2, 3, 4):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            for degree, low in ((3, 0), (3, 1), (2, 0), (4, 2)):  # (3, 1): the bumpy metric
                assert terms([random_polynomial(n, rngs[0], degree, min_degree=low)]) == terms(
                    [drawn_one_by_one(n, rngs[1], degree, low)])
            if n == 1:  # a chart has two dimensions or more
                continue
            spec = random_spec(unit_chart(n), seed)
            rng = np.random.default_rng(seed)
            # f1, f2, u, u1, u2 and phi's rows, in the order they were drawn
            old = [drawn_one_by_one(n, rng) for _ in range(2 + 3 * n + n * n)]
            new = [spec.f1.expr, spec.f2.expr, *spec.u.comps, *spec.u1.comps, *spec.u2.comps,
                   *itertools.chain.from_iterable(spec.phi.entries)]
            assert terms(new) == terms(old)


def test_random_specs_build_and_plan_without_validating_or_deriving(monkeypatch):
    # random_spec, the bumpy metric and their first jets use only the trusted
    # path: no validating constructor, no derivative polynomial, and one
    # monomial enumeration per (n, degree, min_degree)
    inits, derivs, enumerated = [], [], []
    init, deriv, enumerate_monomials = (
        PolynomialExpr.__init__, PolynomialExpr.deriv, fields.monomials_up_to)

    def counted_init(self, *args):
        inits.append(args)
        init(self, *args)

    def counted_deriv(self, i):
        derivs.append(i)
        return deriv(self, i)

    def counted_enumeration(*key):
        enumerated.append(key)
        return enumerate_monomials(*key)

    monkeypatch.setattr(PolynomialExpr, "__init__", counted_init)
    monkeypatch.setattr(PolynomialExpr, "deriv", counted_deriv)
    monkeypatch.setattr(fields, "monomials_up_to", counted_enumeration)
    fields._monomials.cache_clear()
    man = preset_manifold("bumpy", {"n": 3, "eps": 0.05, "seed": 4})
    for seed in range(3):
        spec = random_spec(man.chart, seed)
        evaluate_spec(man.chart, man.metric, spec, man.chart.sample(5, seed))
    assert inits == [] and derivs == []
    assert sorted(enumerated) == [(3, 3, 0), (3, 3, 1)]


# ------------------------------------------------------------- JSON form

def test_poly_from_json_accepts_bare_numbers():
    assert poly_from_json(2, 2.5).terms == {(0, 0): 2.5}
    assert poly_from_json(2, 0).terms == {}


def test_poly_from_json_parses_term_form():
    p = poly_from_json(2, {"terms": [{"c": 1.0, "e": [1, 0]}, {"c": -2, "e": [0, 2]}]})
    assert p.terms == {(1, 0): 1.0, (0, 2): -2.0}


@pytest.mark.parametrize(
    "obj",
    [
        True,
        [1, 2],
        {"terms": 5},
        {"terms": [{"c": "a", "e": [1, 0]}]},
        {"terms": [{"c": 1.0, "e": [1]}]},
        {"terms": [{"c": 1.0, "e": [-1, 0]}]},
        {"terms": [{"c": 1.0, "e": [1, 0], "x": 3}]},
    ],
)
def test_poly_from_json_rejects_malformed_input(obj):
    with pytest.raises(SchemaError):
        poly_from_json(2, obj, where="u[0]")


def per_term_loop(n, terms, where):
    """``poly_from_json``'s term checks one term at a time, as they were
    before the whole-list checks: the reference for every outcome."""
    merged = {}
    for idx, t in enumerate(terms):
        if not isinstance(t, dict) or set(t) != {"c", "e"}:
            raise SchemaError(f"{where}.terms[{idx}]: expected {{'c': num, 'e': [ints]}}")
        c, e = t["c"], t["e"]
        if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
            raise SchemaError(f"{where}.terms[{idx}].c: expected a finite number")
        if (
            not isinstance(e, list)
            or len(e) != n
            or any(
                isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= 2**63 - 1
                for k in e
            )
        ):
            raise SchemaError(
                f"{where}.terms[{idx}].e: expected {n} integers from 0 to 2^63 - 1"
            )
        e = tuple(e)
        merged[e] = merged.get(e, 0.0) + float(c)
    return [(e, c) for e, c in sorted(merged.items()) if c != 0.0]


# One bad or edge-case entry per mutation; a mutation returns the new term.
TERM_MUTATIONS = (
    lambda t: t | {"e": [True, *t["e"][1:]]},
    lambda t: t | {"e": [1.0, *t["e"][1:]]},
    lambda t: t | {"e": [-1, *t["e"][1:]]},
    lambda t: t | {"e": [2**63, *t["e"][1:]]},
    lambda t: t | {"e": [2**63 - 1, *t["e"][1:]]},
    lambda t: t | {"e": t["e"][1:]},
    lambda t: t | {"e": [*t["e"], 0]},
    lambda t: t | {"e": tuple(t["e"])},
    lambda t: t | {"x": 1},
    lambda t: {"e": t["e"]},
    lambda t: t | {"c": float("inf")},
    lambda t: t | {"c": float("-inf")},
    lambda t: t | {"c": float("nan")},
    lambda t: t | {"c": True},
    lambda t: t | {"c": "1"},
    lambda t: t | {"c": -0.0},
    lambda t: t | {"c": 2**70},
    lambda t: [t["c"], t["e"]],
    lambda t: None,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_whole_list_term_checks_match_the_per_term_loop(n, data):
    term = st.fixed_dictionaries({
        "c": st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3)),
        "e": st.lists(st.integers(0, 2), min_size=n, max_size=n),
    })
    terms = data.draw(st.lists(term, max_size=8))
    mutations = data.draw(st.dictionaries(
        st.integers(0, len(terms) - 1), st.sampled_from(TERM_MUTATIONS), max_size=2
    )) if terms else {}
    for idx, mutate in mutations.items():
        terms[idx] = mutate(terms[idx])

    def outcome(parse):
        try:
            return [(e, c.hex()) for e, c in parse()]
        except Exception as exc:  # the exact error, whatever its type
            return type(exc), str(exc)

    got = outcome(lambda: poly_from_json(n, {"terms": terms}, "u[1]").terms.items())
    assert got == outcome(lambda: per_term_loop(n, terms, "u[1]"))
    if not mutations and len({tuple(t["e"]) for t in terms}) == len(terms) > 0:
        assert fields._bulk_terms(n, terms) is not None  # the whole-list path took it


def test_poly_from_json_errors_carry_the_path():
    with pytest.raises(SchemaError) as exc:
        poly_from_json(2, {"terms": [{"c": 1.0, "e": [1]}]}, where="u[0]")
    assert "u[0]" in str(exc.value)


# ------------------------------------------------------------ field jets

def test_scalar_field_jet_layout():
    f = PolynomialScalarField(2, PolynomialExpr(2, [((2, 0), 1.0)]))  # (x^1)^2
    j = f.jet(np.array([[1.0, 2.0], [3.0, -1.0]]))
    assert np.array_equal(j.value, [1.0, 9.0])
    assert np.array_equal(j.grad, [[2.0, 0.0], [6.0, 0.0]])


def test_oneform_field_jet_layout():
    # u = x^1 dx^2: comp[p, i] = u_i, d1[p, j, i] = d_j u_i
    f = PolynomialOneFormField(2, [PolynomialExpr.zero(2), PolynomialExpr.coordinate(2, 0)])
    j = f.jet(np.array([[1.0, 5.0]]))
    assert np.array_equal(j.comp, [[0.0, 1.0]])
    assert j.d1[0, 0, 1] == 1.0 and j.d1[0, 1, 1] == 0.0


def test_endo_field_jet_layout():
    # phi(d_2) = x^2 d_1: comp[p, i, j] = phi^i_j, d1[p, k, i, j] = d_k phi^i_j
    z = PolynomialExpr.zero(2)
    f = PolynomialEndoField(2, [[z, PolynomialExpr.coordinate(2, 1)], [z, z]])
    j = f.jet(np.array([[0.0, 2.0]]))
    assert j.comp[0, 0, 1] == 2.0
    assert j.d1[0, 1, 0, 1] == 1.0
    assert np.count_nonzero(j.d1) == 1


def test_field_kinds_and_zero_constructors():
    assert PolynomialScalarField.zero(2).kind == "scalar"
    assert PolynomialScalarField.zero(2).is_zero
    assert PolynomialOneFormField.zero(3).is_zero
    assert PolynomialEndoField.zero(2).is_zero
    assert PolynomialScalarField.constant(2, 1.5).jet(np.zeros((1, 2))).value[0] == 1.5
    ident = IdentityEndoField(2)
    assert not ident.is_zero
    j = ident.jet(np.zeros((3, 2)))
    assert np.array_equal(j.comp, np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert np.all(j.d1 == 0.0)


def test_field_jets_match_finite_differences():
    rng = np.random.default_rng(8)
    f = PolynomialOneFormField(3, [random_polynomial(3, rng, degree=3) for _ in range(3)])
    pts = np.random.default_rng(9).uniform(-1, 1, size=(6, 3))
    j = f.jet(pts)
    fd = central_diff(lambda q: f.jet(q).comp, pts)
    assert rel_err(j.d1, fd) < 1e-8


# Reference for the shared jet evaluator: every component and derivative slot
# evaluated on its own, one polynomial at a time, with per-term powers.


def reference_values(expr, pts):
    if not expr.terms:
        return np.zeros(len(pts))
    exps = np.array(list(expr.terms))
    coeffs = np.array(list(expr.terms.values()))
    return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2) @ coeffs


def reference_jet(component, shape, rank, pts):
    """(m, n, ..., n, *shape) array of rank-``rank`` partials; ``component``
    maps a component index tuple to its polynomial."""
    n = pts.shape[1]
    out = np.empty((len(pts),) + (n,) * rank + shape)
    for slot in np.ndindex(*((n,) * rank + shape)):
        expr = component(slot[rank:])
        for k in sorted(slot[:rank]):
            expr = expr.deriv(k)
        out[(slice(None),) + slot] = reference_values(expr, pts)
    return out


MAX_TERMS = 5
METRIC_SHIFT = {True: 8192.0, False: 128.0}  # diagonal dominance at any point
# Float-mode bound, fixed from the strategy limits: float64 eps x coefficient
# mass (at most MAX_TERMS + the shift) x |x|^4 (at most 1.5^4) x the largest
# falling factorial 4*3*2, times the roundings one slot can take (4 factors
# per term, MAX_TERMS + 1 terms summed).
FLOAT_JET_TOL = (
    (4 + MAX_TERMS + 1) * np.finfo(float).eps
    * (MAX_TERMS + METRIC_SHIFT[False]) * 1.5**4 * 24
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.booleans(), st.integers(1, 3), st.data())
def test_field_jets_match_the_per_slot_reference(n, exact, order, data):
    # integer coefficients at integer points keep every value an exact float
    coeff = st.integers(-4, 4).map(float) if exact else st.floats(-1.0, 1.0)
    coord = st.integers(-3, 3).map(float) if exact else st.floats(-1.5, 1.5)
    poly = st.lists(
        st.tuples(st.sampled_from(monomials_up_to(n, 4)), coeff), max_size=MAX_TERMS
    ).map(lambda ts: PolynomialExpr(n, ts))

    def polys(count):
        return data.draw(st.lists(poly, min_size=count, max_size=count))

    pts = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                      min_size=1, max_size=4)))
    (f,) = polys(1)
    comps = polys(n)
    flat = polys(n * n)
    entries = [flat[i * n:(i + 1) * n] for i in range(n)]
    upper = iter(polys(n * (n + 1) // 2))
    grid = [[None] * n for _ in range(n)]
    shift = PolynomialExpr.constant(n, METRIC_SHIFT[exact])
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = next(upper) + (shift if i == j else 0.0)

    sj = PolynomialScalarField(n, f).jet(pts)
    oj = PolynomialOneFormField(n, comps).jet(pts)
    ej = PolynomialEndoField(n, entries).jet(pts)
    mj = PolynomialMetricField(n, grid).jet(pts, order)
    pairs = [
        (sj.value, reference_jet(lambda idx: f, (), 0, pts)),
        (sj.grad, reference_jet(lambda idx: f, (), 1, pts)),
        (oj.comp, reference_jet(lambda idx: comps[idx[0]], (n,), 0, pts)),
        (oj.d1, reference_jet(lambda idx: comps[idx[0]], (n,), 1, pts)),
        (ej.comp, reference_jet(lambda idx: entries[idx[0]][idx[1]], (n, n), 0, pts)),
        (ej.d1, reference_jet(lambda idx: entries[idx[0]][idx[1]], (n, n), 1, pts)),
    ]
    metric_ranks = [mj.comp, mj.d1, mj.d2, mj.d3][: order + 1]
    for rank, got in enumerate(metric_ranks):
        pairs.append((got, reference_jet(lambda idx: grid[idx[0]][idx[1]], (n, n), rank, pts)))
    for got, want in pairs:
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= FLOAT_JET_TOL


def derivative_chain_plan(n, comps, order):
    """The jet planner that builds the derivative polynomial of every slot
    along its sorted multi-index: rows, coefficient matrix, exponent levels
    and level index."""
    exprs = []
    for rank in range(order + 1):
        for multi in itertools.product(range(n), repeat=rank):
            for expr in comps:
                for k in sorted(multi):
                    expr = expr.deriv(k)
                exprs.append(expr)
    row = {}
    rows = np.array([row.setdefault(tuple(e.terms.items()), len(row)) for e in exprs])
    basis = sorted({mono for key in row for mono, _ in key})
    if not basis:
        return rows, None, None, None
    column = {mono: c for c, mono in enumerate(basis)}
    coeffs = [0.0] * (len(row) * len(basis))
    for at, key in zip(range(0, len(coeffs), len(basis)), row):
        for mono, coeff in key:
            coeffs[at + column[mono]] = coeff
    levels, level = np.unique(basis, return_inverse=True)
    return rows, np.reshape(coeffs, (len(row), len(basis))), levels, level.reshape(len(basis), n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 3), st.data())
def test_jet_plans_match_the_derivative_chain_planner(n, order, data):
    coeff = st.one_of(st.integers(-4, 4).map(float), st.floats(-1e3, 1e3),
                      st.sampled_from([5e-324, 1e300, -1e300]))
    poly = st.lists(
        st.tuples(st.sampled_from(monomials_up_to(n, 4)), coeff), max_size=MAX_TERMS
    ).map(lambda ts: PolynomialExpr(n, ts))
    comps = data.draw(st.lists(poly, min_size=1, max_size=4))
    if data.draw(st.booleans()):  # zero polynomials
        comps += [PolynomialExpr.zero(n)] * data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):  # repeated components: one object, and equal terms
        comps += [comps[0], PolynomialExpr(n, comps[-1].terms)]
    if data.draw(st.booleans()):  # a gradient one-form u_i = d_i f
        comps += [comps[0].deriv(i) for i in range(n)]
    if data.draw(st.booleans()):  # an exponent near the int64 limit
        huge = (2**63 - 1 - data.draw(st.integers(0, 3)),) + (1,) * (n - 1)
        comps.append(PolynomialExpr(n, [(huge, data.draw(coeff)), ((0,) * n, 1.0)]))
    if data.draw(st.booleans()):  # a symmetric metric grid: (i, j) and (j, i) one object
        upper = iter(itertools.cycle(comps))
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = next(upper)
        comps = [e for row in grid for e in row]
    plan = fields._JetPlan(n, tuple(comps), (len(comps),), order)
    rows, coeffs, levels, level = derivative_chain_plan(n, comps, order)
    assert np.array_equal(plan.rows, rows) and plan.rows.dtype == rows.dtype
    if coeffs is None:
        assert plan.coeffs is None
        return
    assert plan.coeffs.dtype == coeffs.dtype and plan.coeffs.flags.c_contiguous
    assert np.array_equal(plan.coeffs, coeffs)
    assert np.array_equal(plan.lowering.levels, levels)
    assert np.array_equal(plan.lowering.index[0], np.arange(n))
    assert np.array_equal(plan.lowering.index[1], level)


def test_a_shared_lowering_cannot_be_written():
    # every plan over a support shares one lowering and every plan over its
    # basis one monomial table, so an in-place write would corrupt them all
    low = fields._lowering(2, 2, frozenset(monomials_up_to(2, 3)))
    table = low.monomials(unit_chart().sample(4, 0))
    steps = [arr for step in low.steps for arr in step[2:]]
    arrays = [low.exponents, low.slots, low.levels, *low.index, *steps, table]
    assert len(steps) == 6
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1


def test_oneform_component_count_is_checked():
    with pytest.raises(DimensionMismatch):
        PolynomialOneFormField(2, [PolynomialExpr.zero(2)])


# ---------------------------------------------------------------- metrics

def test_constant_metric_validation():
    with pytest.raises(BadParams):
        ConstantMetricField(2, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        ConstantMetricField(2, np.eye(3))
    # indefinite matrices are caught when the jet is evaluated
    indefinite = ConstantMetricField(2, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(MetricNotPositiveDefinite):
        indefinite.jet(np.zeros((1, 2)), 1)


def test_the_spd_error_carries_its_point_and_pickles():
    indefinite = ConstantMetricField(2, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(MetricNotPositiveDefinite) as info:
        indefinite.jet(np.zeros((3, 2)), 1)
    assert (info.value.point, info.value.eigenvalues) == (0, [-1.0, 3.0])
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.point, copy.eigenvalues) == (
        str(info.value), 0, [-1.0, 3.0])
    # a caller may raise it with a message alone
    assert MetricNotPositiveDefinite("not SPD").point is None


def eigenvalue_verdict(comp):
    """The SPD check as the eigenvalue test alone decides it: None, or the
    message and fields of the error it raises (``eigvalsh`` itself raises
    on some non-finite matrices)."""
    try:
        w = np.linalg.eigvalsh(comp)
    except np.linalg.LinAlgError as exc:
        return "LinAlgError", str(exc)
    bad = w[:, 0] <= fields._SPD_RATIO * np.abs(w[:, -1])
    if not bad.any():
        return None
    p = int(np.argmax(bad))
    return (f"metric eigenvalues {w[p].tolist()} fail the SPD check at point index {p}",
            p, w[p].tolist())


def screened_verdict(comp):
    """(whether ``_spd_check`` decided without ``eigvalsh``, its verdict in
    the form of ``eigenvalue_verdict``)."""
    calls = []
    real = np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or real(a))
        try:
            fields._spd_check(comp)
            verdict = None
        except MetricNotPositiveDefinite as exc:
            verdict = (str(exc), exc.point, exc.eigenvalues)
        except np.linalg.LinAlgError as exc:
            verdict = ("LinAlgError", str(exc))
    return not calls, verdict


def tight_gershgorin(n, delta, rng):
    """An n x n symmetric matrix whose least eigenvalue, delta * scale, is
    its Gershgorin lower bound: diagonal 1, off-diagonals -(1 - delta)/(n - 1),
    under a random signed permutation and a random positive scale."""
    a = np.full((n, n), -(1.0 - delta) / max(n - 1, 1))
    np.fill_diagonal(a, 1.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    perm = rng.permutation(n)
    a = (signs[:, None] * a * signs[None, :])[np.ix_(perm, perm)]
    return a * 10.0 ** rng.uniform(-3, 3)


def spd_cases(n, rng):
    """(kind, matrix) pairs: near the SPD boundary (least / greatest
    eigenvalue from half the check's ratio to four times it), diagonally
    dominant, SPD but not diagonally dominant, and matrices that fail."""
    r = fields._SPD_RATIO
    cases = []
    for ratio in np.geomspace(r / 2, 4 * r, 24):
        w = np.r_[1.0, rng.uniform(ratio, 1.0, max(n - 2, 0)), ratio][-n:]
        cases.append(("near_diagonal", np.diag(rng.permutation(w) * 10.0 ** rng.uniform(-3, 3))))
        cases.append(("near_tight", tight_gershgorin(n, 2 * ratio, rng)))
    for _ in range(8):
        x = rng.standard_normal((n, n))
        dominant = 0.1 * (x + x.T) / n + np.diag(rng.uniform(1.0, 2.0, n))
        cases.append(("dominant", dominant))
        q, _ = np.linalg.qr(x)
        spd = q @ np.diag(rng.uniform(0.1, 1.0, n)) @ q.T
        cases.append(("spd", 0.5 * (spd + spd.T)))
        cases.append(("indefinite", 0.5 * (x + x.T) - np.eye(n) * np.abs(x).sum()))
    if n > 1:
        # L L^T for L the lower triangle of ones: entry (i, j) is min(i, j) + 1,
        # so row 0 has diagonal 1 and off-diagonal sum n - 1
        ones = np.tril(np.ones((n, n)))
        cases.append(("spd_not_dominant", ones @ ones.T))
        cases.append(("singular", np.ones((n, n))))
    cases.append(("singular", np.zeros((n, n))))
    for bad in (np.nan, np.inf, -np.inf):
        for slot in ((0, 0), (0, n - 1)):
            a = np.eye(n)
            a[slot] = a[slot[::-1]] = bad
            cases.append(("nonfinite", a))
    return cases


@pytest.mark.parametrize("n", range(1, 9))
def test_the_gershgorin_screen_clears_only_what_the_eigenvalue_test_passes(n):
    """Whatever the screen clears passes the eigenvalue test, and a matrix
    it does not clear gets the eigenvalue test's own verdict, message and
    point; SPD matrices that are not diagonally dominant fall back and
    pass."""
    rng = np.random.default_rng(100 + n)
    cleared = {}
    for kind, a in spd_cases(n, rng):
        comp = fields.points_last(a[None])
        screen, verdict = screened_verdict(comp)
        expected = eigenvalue_verdict(comp)
        assert verdict == expected, (kind, a)
        if screen:
            assert expected is None, (kind, a)
        cleared.setdefault(kind, set()).add(screen)
    # the cases reach both sides of the screen where they should (a 1 x 1
    # matrix has no boundary but its sign)
    assert cleared["dominant"] == {True}
    assert cleared["indefinite"] == cleared["singular"] == cleared["nonfinite"] == {False}
    if n > 1:
        assert cleared["near_diagonal"] == cleared["near_tight"] == {True, False}
        assert cleared["spd_not_dominant"] == {False}


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_a_bad_point_after_cleared_points_keeps_its_message(n):
    rng = np.random.default_rng(n)
    batch = np.repeat(np.eye(n)[None], 40, axis=0) * rng.uniform(1, 2, (40, 1, 1))
    for bad_at in (0, 17, 39):
        comp = batch.copy()
        comp[bad_at] = -np.eye(n) if n == 1 else np.ones((n, n))
        comp[bad_at + 1:] = np.eye(n)  # points after the bad one are cleared too
        comp = fields.points_last(comp)
        screen, verdict = screened_verdict(comp)
        assert not screen
        assert verdict == eigenvalue_verdict(comp)
        assert verdict[1] == bad_at and f"at point index {bad_at}" in verdict[0]
    # through a metric field: [[1, x], [x, 1]] is indefinite where |x| > 1
    x = PolynomialExpr(2, {(1, 0): 1.0})
    one = PolynomialExpr(2, {(0, 0): 1.0})
    metric = PolynomialMetricField(2, [[one, x], [x, one]])
    pts = np.column_stack([np.linspace(-0.5, 0.5, 12), np.zeros(12)])
    pts[9, 0] = 1.5
    with pytest.raises(MetricNotPositiveDefinite) as info:
        metric.jet(pts, 1)
    w = np.linalg.eigvalsh(np.array([[1.0, 1.5], [1.5, 1.0]])).tolist()
    assert (info.value.point, info.value.eigenvalues) == (9, w)
    assert str(info.value) == f"metric eigenvalues {w} fail the SPD check at point index 9"


def random_spd_batch(m, n, cond, rng):
    """m symmetric positive definite n x n matrices of condition number
    ``cond``, each with its own random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((m, n, n)))
    w = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-2, 2, (m, 1))
    a = np.einsum("pij,pj,pkj->pik", q, w, q)
    return fields.points_last(0.5 * (a + a.swapaxes(1, 2)))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("cond", [10.0, 1e3, 1e8])
def test_the_spd_inverse_matches_lapack_within_its_rounding_bound(n, cond):
    eps = np.finfo(float).eps
    comp = random_spd_batch(300, n, cond, np.random.default_rng(n))
    got = fields._spd_inverse(comp)
    want = np.linalg.inv(comp)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() <= 10 * n * eps * cond
    assert got.strides[0] == got.itemsize  # points-last
    assert not np.shares_memory(got, comp)


def test_the_spd_inverse_of_a_diagonal_is_its_reciprocals():
    rng = np.random.default_rng(0)
    for n in range(1, 9):
        d = 10.0 ** rng.uniform(-5, 5, (50, n))
        got = fields._spd_inverse(fields.points_last(np.einsum("pi,ij->pij", d, np.eye(n))))
        assert same_bits(got, np.einsum("pi,ij->pij", 1.0 / d, np.eye(n)))


def test_metric_jet_order_contract():
    m = ConstantMetricField(2)
    pts = np.zeros((1, 2))
    for bad in (0, 4):
        with pytest.raises(JetOrderUnsupported):
            m.jet(pts, bad)
    mj = m.jet(pts, 2)
    with pytest.raises(JetOrderUnsupported) as exc:
        mj.require_order(3, "curvature derivative")
    assert "order 3" in str(exc.value)
    assert np.all(m.jet(pts, 3).d1 == 0.0)


def test_sphere_metric_values_and_derivatives():
    m = Sphere2MetricField(2.0)
    theta = np.array([[np.pi / 3, 1.0], [0.7, 4.0]])
    j = m.jet(theta, 3)
    assert rel_err(j.comp[:, 0, 0], [4.0, 4.0]) < 1e-15
    assert rel_err(j.comp[:, 1, 1], 4.0 * np.sin(theta[:, 0]) ** 2) < 1e-15
    fd1 = central_diff(lambda q: m.jet(q, 1).comp, theta)
    fd2 = central_diff(lambda q: m.jet(q, 2).d1, theta)
    fd3 = central_diff(lambda q: m.jet(q, 3).d2, theta)
    assert rel_err(j.d1, fd1) < 1e-8
    assert rel_err(j.d2, fd2) < 1e-8
    assert rel_err(j.d3, fd3) < 1e-7


def test_sphere_metric_rejects_nonpositive_radius():
    with pytest.raises(BadParams):
        Sphere2MetricField(0.0)


def test_halfplane_metric_values_and_derivatives():
    m = HalfPlaneMetricField(1.0)
    pts = np.array([[0.3, 0.8], [-1.0, 2.5]])
    j = m.jet(pts, 3)
    assert rel_err(j.comp[:, 0, 0], 1.0 / pts[:, 1] ** 2) < 1e-15
    assert np.all(j.comp[:, 0, 1] == 0.0)
    fd1 = central_diff(lambda q: m.jet(q, 1).comp, pts, h=1e-5)
    fd2 = central_diff(lambda q: m.jet(q, 2).d1, pts, h=1e-5)
    fd3 = central_diff(lambda q: m.jet(q, 3).d2, pts, h=1e-5)
    assert rel_err(j.d1, fd1) < 1e-8
    assert rel_err(j.d2, fd2) < 1e-8
    assert rel_err(j.d3, fd3) < 1e-7
    with pytest.raises(PointOutsideDomain):
        m.jet(np.array([[0.0, -1.0]]), 1)
    with pytest.raises(BadParams):
        HalfPlaneMetricField(-1.0)


@pytest.mark.parametrize("m", [5, 256])
def test_polynomial_metric_is_bitwise_symmetric(bumpy2, m):
    pm = bumpy2.metric
    assert pm.entries[0][1] is pm.entries[1][0]
    j = pm.jet(bumpy2.chart.sample(m, 1), 3)
    assert np.array_equal(j.comp, j.comp.swapaxes(1, 2))
    assert np.array_equal(j.d1, j.d1.swapaxes(2, 3))
    assert np.array_equal(j.d2, j.d2.swapaxes(1, 2))  # derivative indices
    assert np.array_equal(j.d2, j.d2.swapaxes(3, 4))
    assert np.array_equal(j.d3, j.d3.swapaxes(4, 5))


def test_polynomial_metric_derivatives_match_finite_differences(bumpy3):
    pm = bumpy3.metric
    pts = bumpy3.chart.sample(4, 5)
    j = pm.jet(pts, 3)
    assert rel_err(j.d1, central_diff(lambda q: pm.jet(q, 1).comp, pts)) < 1e-8
    assert rel_err(j.d2, central_diff(lambda q: pm.jet(q, 2).d1, pts)) < 1e-8
    assert rel_err(j.d3, central_diff(lambda q: pm.jet(q, 3).d2, pts)) < 1e-7


def test_polynomial_metric_rejects_asymmetric_entries():
    z = PolynomialExpr.zero(2)
    one = PolynomialExpr.constant(2, 1.0)
    x = PolynomialExpr.coordinate(2, 0)
    with pytest.raises(BadParams):
        PolynomialMetricField(2, [[one, x], [z, one]])


def test_polynomial_field_containers_are_immutable(bumpy2):
    x = PolynomialExpr.coordinate(2, 0)
    oneform = PolynomialOneFormField(2, [x, x])
    endo = PolynomialEndoField(2, [[x, x], [x, x]])
    metric = bumpy2.metric
    assert metric.entries[0][1] is metric.entries[1][0]
    for grid in (oneform.comps, endo.entries, endo.entries[1], metric.entries,
                 metric.entries[1]):
        with pytest.raises(TypeError):
            grid[0] = x


def rebuilt(field):
    """The same field from new polynomial objects: nothing planned yet."""
    n = field.n

    def fresh(expr):
        return PolynomialExpr(n, expr.terms)

    if isinstance(field, PolynomialScalarField):
        return PolynomialScalarField(n, fresh(field.expr))
    if isinstance(field, PolynomialOneFormField):
        return PolynomialOneFormField(n, map(fresh, field.comps))
    rows = [[fresh(e) for e in row] for row in field.entries]
    return type(field)(n, rows)


def spec_level_inputs() -> list:
    """(manifold, spec) pairs for the spec-level jet path: a random spec at
    n = 2, 3 and 4 on a bumpy metric, each also with three bindings zeroed
    (the one zero field of each kind), and case 17, whose u1 and u2 are one
    field."""
    inputs = []
    for n in (2, 3, 4):
        man = preset_manifold("bumpy", {"n": n, "eps": 0.05, "seed": 30 + n})
        spec = random_spec(man.chart, 30 + n)
        inputs += [(man, spec), (man, spec.with_zeroed("f2").with_zeroed("u1").with_zeroed("phi"))]
    man = inputs[2][0]  # bumpy n = 3
    rng = np.random.default_rng(37)
    omega = PolynomialOneFormField(3, [random_polynomial(3, rng) for _ in range(3)])
    inputs.append((man, build_case("17", {"omega": omega}, man)))
    return inputs


KIND_BINDINGS = {"scalar": ("f1", "f2"), "oneform": ("u", "u1", "u2"), "endo": ("phi",)}


@pytest.mark.parametrize(
    "kind, order",
    [("scalar", 1), ("oneform", 1), ("endo", 1), ("metric", 1), ("metric", 2), ("metric", 3)],
)
def test_warm_jet_plans_match_freshly_built_fields(kind, order):
    # A plan is batch-free, and a field's jet is the same alone and in its
    # spec's call, where the metric and the bindings share one monomial
    # table per basis: every level has the bits of a freshly built field
    # evaluated alone, signs of zeros included.  One matmul over several
    # fields' rows fails this, since BLAS rounds by matrix shape.
    def levels(jet):
        return (jet.value, jet.grad) if kind == "scalar" else jet.levels

    def alone(f, pts):
        return f.jet(pts, order) if kind == "metric" else f.jet(pts)

    for man, spec in spec_level_inputs():
        if kind == "metric":
            chosen = [man.metric]
        else:
            chosen = [getattr(spec, name) for name in KIND_BINDINGS[kind]]
        wide = man.chart.sample(333, 31)
        # the wide batch plans every field; then other batch sizes
        for m, pts in ((333, wide), (1, man.chart.sample(1, 32)), (10, man.chart.sample(10, 33)),
                       (20, man.chart.sample(20, 34)), (333, wide[::-1])):
            with fields._evaluation_context():
                metric = man.metric.jet(pts, order)
                jets = spec.jets(pts)
            for field in chosen:
                cold = levels(alone(rebuilt(field), pts))
                assert len(cold) == (order + 1 if kind == "metric" else 2)
                assert cold[0].shape[0] == m
                for got in (metric if kind == "metric" else jets[field], alone(field, pts)):
                    assert len(levels(got)) == len(cold)
                    assert all(map(same_bits, levels(got), cold))


# ---------------------------------------------------------------- presets

def test_preset_manifolds_cover_the_catalogue():
    for name, params in (
        ("euclidean", {"n": 4}),
        ("sphere2", {"r": 2.0}),
        ("half_plane", {"k": 3.0}),
        ("bumpy", {"n": 3, "eps": 0.05, "seed": 2}),
    ):
        man = preset_manifold(name, params)
        pts = man.chart.sample(10, 0)
        j = man.metric.jet(pts, 2)
        w = np.linalg.eigvalsh(j.comp)
        assert w.min() > 0.0  # positive definite across the chart


def test_preset_manifold_rejects_unknown_names_and_params():
    with pytest.raises(UnknownPreset):
        preset_manifold("nope", {})
    with pytest.raises(BadParams):
        preset_manifold("euclidean", {"n": 2, "x": 1})
    with pytest.raises(BadParams):
        preset_manifold("euclidean", {"n": 1})
    with pytest.raises(BadParams):
        preset_manifold("bumpy", {"n": 2, "eps": "a", "seed": 0})


@pytest.mark.parametrize(
    "name, params",
    [("sphere2", {"r": float("inf")}), ("half_plane", {"k": float("nan")}),
     ("bumpy", {"n": 2, "eps": float("nan"), "seed": 0})],
)
def test_preset_manifold_rejects_non_finite_parameters(name, params):
    with pytest.raises(BadParams) as exc:
        preset_manifold(name, params)
    assert "must be a finite number" in str(exc.value)


def test_bumpy_eps_bound_protects_positive_definiteness():
    with pytest.raises(BadParams):
        preset_manifold("bumpy", {"n": 2, "eps": 0.5, "seed": 1})
    with pytest.raises(BadParams):
        preset_manifold("bumpy", {"n": 3, "eps": 0.31, "seed": 1})
    preset_manifold("bumpy", {"n": 3, "eps": 0.29, "seed": 1})  # just inside


def test_bumpy_metric_is_seed_reproducible():
    a = preset_manifold("bumpy", {"n": 2, "eps": 0.05, "seed": 9}).metric
    b = preset_manifold("bumpy", {"n": 2, "eps": 0.05, "seed": 9}).metric
    assert a.entries[0][0].terms == b.entries[0][0].terms
    assert a.entries[0][1].terms == b.entries[0][1].terms


# ---------------------------------------------------------- evaluate_jets

def test_evaluate_jets_bundles_metric_and_fields(bumpy2):
    u = PolynomialOneFormField(2, [PolynomialExpr.zero(2), PolynomialExpr.coordinate(2, 0)])
    pts = bumpy2.chart.sample(3, 2)
    pj = evaluate_jets(bumpy2.chart, bumpy2.metric, {"u": u}, pts, metric_order=2)
    assert pj.metric.order == 2
    assert pj.fields["u"].comp.shape == (3, 2)
    assert np.array_equal(pj.points, pts)


def test_evaluate_jets_checks_field_dimension(bumpy2):
    bad = PolynomialOneFormField(3, [PolynomialExpr.zero(3)] * 3)
    with pytest.raises(DimensionMismatch):
        evaluate_jets(bumpy2.chart, bumpy2.metric, {"u": bad}, bumpy2.chart.sample(2, 0))


def test_evaluate_jets_rejects_geometry_dependent_fields(bumpy2):
    class NeedsGeometry:
        kind = "endo"
        is_zero = False
        n = 2

        def jet_geo(self, geo):  # pragma: no cover
            raise AssertionError

    with pytest.raises(BadParams):
        evaluate_jets(bumpy2.chart, bumpy2.metric, {"phi": NeedsGeometry()}, bumpy2.chart.sample(2, 0))


def test_evaluate_jets_enforces_the_chart_domain(bumpy2):
    u = PolynomialOneFormField.zero(2)
    with pytest.raises(PointOutsideDomain):
        evaluate_jets(bumpy2.chart, bumpy2.metric, {"u": u}, np.array([[5.0, 0.0]]))
