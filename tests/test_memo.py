"""The per-run evaluation memo: ``fields._evaluation_context`` and ``_memo``.

Inside a context each field's jet, and the derived data the two curvature
paths key through the memo, is computed once per (owners, point batch,
order); outside one nothing is kept.  These tests pin what an entry may be
shared by, that cached arrays cannot be written, and that nothing outlives
the outermost context.
"""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from affconn import (
    Corruption,
    H_TERMS,
    PolynomialExpr,
    PolynomialOneFormField,
    build_case,
    cli,
    connection,
    curvature,
    curvature_direct,
    curvature_formula,
    evaluate_jets,
    evaluate_spec,
    fields,
    needed_order,
    random_spec,
)
from affconn.cli import cmd_verify, parse_config
from affconn.curvature import BINDING_NAMES, GROUP_READS, GROUPS
from affconn.fields import _evaluation_context
from conftest import RAW_BUMPY3

# raw evaluation: field jets and the monomial tables they are computed from
RAW_KINDS = {"jet", "monomials"}
FORMULA_KINDS = {"geometry", "split_phi", "sharp", "eta_helpers", "rec", *GROUPS}
ORACLE_KINDS = {
    "oracle_inverse", "oracle_gamma", "oracle_phi_split", "oracle_sharp", "oracle_rec",
    *H_TERMS,
}


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


def test_inside_a_context_a_copy_of_the_batch_reuses_the_monomial_table(monkeypatch, bumpy2):
    # two fields over one basis: the second jet is a miss, its table a hit
    tables, monomials = [], fields._Lowering.monomials

    def counted(low, pts):
        tables.append(low.key)
        return monomials(low, pts)

    monkeypatch.setattr(fields._Lowering, "monomials", counted)
    pts = bumpy2.chart.sample(4, 1)
    x, y = (PolynomialExpr.coordinate(2, i) for i in range(2))
    u = PolynomialOneFormField(2, [x * y, x + y])
    f = fields.PolynomialScalarField(2, y * x - 3.0 * y + x)
    with _evaluation_context():
        u.jet(pts)
        f.jet(pts.copy())
        assert len(tables) == 1
        assert [key[0] for key in memo_keys()].count("monomials") == 1
    f.jet(pts)  # outside a context every jet tables afresh
    assert len(tables) == 2 and tables[0] == tables[1]


def test_outside_a_context_the_oracle_runs_its_blocks_with_no_memo(monkeypatch, bumpy3):
    # Only the oracle's jet step opens a context.  One around its block loop
    # would hold every block's intermediates until the call returned.
    monkeypatch.setattr(fields, "_BLOCK_BYTES", 4 * 8 * 3**4)  # 3 blocks
    memos, memo = [], fields._memo

    def recording(*args):
        memos.append(fields._MEMO.get())
        return memo(*args)

    monkeypatch.setattr(curvature, "_memo", recording)
    spec = random_spec(bumpy3.chart, 35)
    curvature_direct(bumpy3.chart, bumpy3.metric, spec, bumpy3.chart.sample(10, 36))
    # per block: inverse, Christoffel, Phi split, 3 sharps, rec, 5 H addends
    assert len(memos) == 3 * 12 and all(opened is None for opened in memos)


def test_outside_a_context_the_formula_runs_its_blocks_with_no_memo(monkeypatch, bumpy3):
    # As the oracle: no context around the block loop, which would hold
    # every block's groups until the call returned.
    monkeypatch.setattr(fields, "_BLOCK_BYTES", 4 * 8 * 3**4)  # 3 blocks
    spec = random_spec(bumpy3.chart, 35)
    frame = evaluate_spec(bumpy3.chart, bumpy3.metric, spec, bumpy3.chart.sample(10, 36), order=2)
    memos, memo = [], fields._memo

    def recording(kind, *args):
        memos.append((kind, fields._MEMO.get()))
        return memo(kind, *args)

    monkeypatch.setattr(curvature, "_memo", recording)
    curvature_formula(frame)
    kinds = [kind for kind, _ in memos]
    # 14 groups per block; the helpers once, on the whole batch
    assert kinds.count("eta_helpers") == 3 and kinds.count("rec") == 1
    assert len(kinds) == 3 * 14 + 4 and all(opened is None for _, opened in memos)


@pytest.mark.parametrize("entry", [
    "evaluate_spec", "curvature_formula", "curvature_direct", "jets", "evaluate_jets",
    "curvature_formula_blocks",
])
def test_no_memo_is_left_open_when_an_entry_point_returns(monkeypatch, bumpy2, entry):
    spec = random_spec(bumpy2.chart, 37)
    pts = bumpy2.chart.sample(5, 38)
    frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=2)
    if entry == "curvature_formula_blocks":  # 5 points in 3 blocks
        monkeypatch.setattr(fields, "_BLOCK_BYTES", 2 * 8 * 2**4)
    calls = {
        "evaluate_spec": lambda: evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts),
        "curvature_formula": lambda: curvature_formula(frame),
        "curvature_formula_blocks": lambda: curvature_formula(frame),
        "curvature_direct": lambda: curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts),
        "jets": lambda: spec.jets(pts),
        "evaluate_jets": lambda: evaluate_jets(
            bumpy2.chart, bumpy2.metric, {"u": spec.u}, pts, metric_order=2
        ),
    }
    assert fields._MEMO.get() is None
    calls[entry]()
    assert fields._MEMO.get() is None
    with _evaluation_context():
        opened = fields._MEMO.get()
        calls[entry]()
        assert fields._MEMO.get() is opened  # joined, not replaced
    assert fields._MEMO.get() is None


def test_a_context_that_sees_one_array_copies_no_batch(bumpy2):
    # Reading a batch's values copies it; with one array there is nothing
    # to match, so the copy would only add to the call's peak memory.
    spec = random_spec(bumpy2.chart, 39)
    pts = bumpy2.chart.sample(5, 40)
    with _evaluation_context():
        frame = evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=2)
        curvature_formula(frame)
        curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts)
        memo = fields._MEMO.get()
        assert len(memo.by_id) == 1 and not memo.by_value
        assert spec.u.jet(pts.copy()) is frame.u  # a second array: both are read
        assert len(memo.by_id) == 2 and len(memo.by_value) == 1


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
            frame.split.phi1, frame.split.phi1_d1, frame.u_sharp.comp, frame.u2_sharp.d1,
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
            curvature_formula(evaluate_spec(chart, metric, spec, pts, order=needed_order(spec)))
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
    assert shared and {key[0] for key in shared} == RAW_KINDS
    assert {key[0] for key in formula - shared} == FORMULA_KINDS
    assert {key[0] for key in oracle - shared} == ORACLE_KINDS


def test_one_context_gives_the_oracle_nothing_but_raw_jets_from_the_formula(bumpy2):
    spec = random_spec(bumpy2.chart, 9)
    pts = bumpy2.chart.sample(4, 10)
    with _evaluation_context():
        curvature_formula(
            evaluate_spec(bumpy2.chart, bumpy2.metric, spec, pts, order=needed_order(spec))
        )
        before = memo_keys()
        curvature_direct(bumpy2.chart, bumpy2.metric, spec, pts)
        added = memo_keys() - before
    # every raw jet the oracle asks for is a hit; it adds only its own data
    assert {key[0] for key in added} == ORACLE_KINDS


def keyed_values(monkeypatch, manifold, spec, pts) -> dict:
    """Every value one formula run and one oracle run key through the memo,
    outside any context, by (kind, the bindings named among its owners).
    Calls go on to ``fields._memo``: the formula builds each helper once per
    call for every group that reads it, so each value is computed, and
    recorded, once."""
    frame = evaluate_spec(manifold.chart, manifold.metric, spec, pts, order=needed_order(spec))
    values, memo = {}, fields._memo

    def recording(kind, owners, pts, order, compute):
        # the formula keys on the frame's jets, the oracle on the spec's fields
        reads = tuple(name for owner in owners for name in BINDING_NAMES
                      if owner is getattr(frame, name) or owner is getattr(spec, name))

        def record():
            assert (kind, reads) not in values
            value = values[kind, reads] = compute()
            return value

        return memo(kind, owners, pts, order, record)

    with monkeypatch.context() as patch:
        patch.setattr(curvature, "_memo", recording)
        curvature_formula(frame)
        curvature_direct(manifold.chart, manifold.metric, spec, pts)
    return values


def arrays(value) -> list:
    if isinstance(value, tuple):
        return [a for item in value for a in arrays(item)]
    if dataclasses.is_dataclass(value):
        return [a for item in vars(value).values() if item is not None for a in arrays(item)]
    return [value]


def test_each_curvature_entry_is_keyed_by_exactly_the_bindings_it_reads(monkeypatch, bumpy3):
    # A missing owner would let diagnose's binding search reuse a stale value
    # and an extra one would recompute in vain: either shows up here.
    spec = random_spec(bumpy3.chart, 31)
    pts = bumpy3.chart.sample(6, 32)
    clean = keyed_values(monkeypatch, bumpy3, spec, pts)
    assert {(name, GROUP_READS[name]) for name in GROUPS} <= set(clean)
    assert {(kind, reads) for kind, reads in clean if kind in H_TERMS} == {
        ("h_u_phi1", ("u", "phi")), ("h_u_phi2", ("u", "phi")), ("h_phi1_u", ("u", "phi")),
        ("h_f1", ("f1", "u1")), ("h_f2", ("f2", "u2")),
    }
    assert {"eta_helpers", "rec"} <= {kind for kind, _ in clean}
    for binding in BINDING_NAMES:
        # the zero field takes the binding's place among the owners
        zeroed = keyed_values(monkeypatch, bumpy3, spec.with_zeroed(binding), pts)
        assert set(zeroed) == set(clean)
        for key, value in clean.items():
            same = all(map(np.array_equal, arrays(value), arrays(zeroed[key])))
            assert same == (binding not in key[1]), (key, binding)


def test_a_failing_verify_recomputes_only_what_a_zeroed_binding_reads(monkeypatch):
    # One failing verify: the check itself, then diagnose.  Count the group
    # and H-addend entries each formula and oracle call adds.
    added = {"formula": [], "oracle": []}

    def counting(path, function):
        def wrapper(*args, **kwargs):
            before = memo_keys()
            result = function(*args, **kwargs)
            new = memo_keys() - before
            added[path].append((
                sum(key[0] in GROUPS for key in new), sum(key[0] in H_TERMS for key in new),
            ))
            return result
        return wrapper

    # every pair runs through ``curvatures``, by the curvature module's names
    monkeypatch.setattr(curvature, "curvature_formula",
                        counting("formula", curvature.curvature_formula))
    monkeypatch.setattr(curvature, "curvature_direct",
                        counting("oracle", curvature.curvature_direct))
    config = parse_config(json.dumps(RAW_BUMPY3))
    code, report = cmd_verify(config, corrupt_term="h_f1")
    assert code == 1 and report["diagnosis"]["term_table"][0]["term"] == "h_f1"
    assert len(added["formula"]) == 15 and len(added["oracle"]) == 20
    # the check builds all 14 groups and 5 addends of the one-block batch
    assert added["formula"][0] == (len(GROUPS), 0)
    assert added["oracle"][0] == (0, len(H_TERMS))
    # diagnose's first run, its clean groups, its clean and 5 bumped oracles
    assert added["formula"][1:3] == [(0, 0), (0, 0)]
    assert added["oracle"][1:8] == [(0, 0)] * 7
    # the ablation zeroes u, u1, u2, f1, f2, phi in turn
    ablation = [groups for groups, _ in added["formula"][3:9]]
    assert ablation == [sum(b in reads for reads in GROUP_READS.values()) for b in BINDING_NAMES]
    assert ablation == [7, 5, 4, 5, 4, 7] and sum(ablation) == 32
    assert [addends for _, addends in added["oracle"][8:14]] == [3, 1, 1, 1, 1, 3]
    spec = config.spec
    assert spec.with_zeroed("u").u is spec.with_zeroed("u").u


def test_a_failing_verify_computes_h_once(monkeypatch):
    # Only the check's own frame reads H and Gamma~; diagnose builds its
    # frames for the curvature formula, which reads neither.
    corruptions, frames = [], []
    deformation_h, evaluate = connection.deformation_h, connection.evaluate_spec

    def counted_h(*args, corrupt=None):
        corruptions.append(corrupt)
        return deformation_h(*args, corrupt=corrupt)

    def counted_frames(*args, **kwargs):
        frames.append(evaluate(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(connection, "deformation_h", counted_h)
    for module in (curvature, cli):
        monkeypatch.setattr(module, "evaluate_spec", counted_frames)
    code, report = cmd_verify(parse_config(json.dumps(RAW_BUMPY3)), corrupt_term="h_f1")
    assert code == 1 and report["diagnosis"]["term_table"][0]["term"] == "h_f1"
    assert len(frames) == 15 and corruptions == [Corruption("h_f1")]
    assert "h" in vars(frames[0]) and not any("h" in vars(frame) for frame in frames[1:])


def test_the_formula_keys_its_groups_by_block(monkeypatch, bumpy3):
    # blocks of 4 points: a batch of 10 spans 3, the last one short
    monkeypatch.setattr(fields, "_BLOCK_BYTES", 4 * 8 * 3**4)
    blocks = 3
    spec = random_spec(bumpy3.chart, 33)
    pts = bumpy3.chart.sample(10, 34)

    def formula(spec):
        return curvature_formula(evaluate_spec(bumpy3.chart, bumpy3.metric, spec, pts, order=2))

    with _evaluation_context():
        first, _ = formula(spec)
        keys = memo_keys()
        # a key ends in (batch token, order): each block is its own batch,
        # and the helpers are the whole batch's
        assert len({key[-2] for key in keys if key[0] in GROUPS}) == blocks
        assert len({key[-2] for key in keys if key[0] in {"eta_helpers", "rec"}}) == 1
        assert np.array_equal(formula(spec)[0], first)
        assert memo_keys() == keys  # a repeated call hits in every block
        added = []
        for name in BINDING_NAMES:
            before = memo_keys()
            formula(spec.with_zeroed(name))
            new = memo_keys() - before
            added.append((sum(key[0] in GROUPS for key in new),
                          sum(key[0] in {"eta_helpers", "rec"} for key in new)))
    # the groups that read a zeroed binding, once per block, and the helpers
    # that read it: beta/alpha of u, u1 and u2 read u and phi, rec reads u1.
    # Zeroing u2 binds the zero one-form the u1 step bound, so the beta/alpha
    # of that form are a hit.
    groups = [sum(b in reads for reads in GROUP_READS.values()) for b in BINDING_NAMES]
    assert added == [(blocks * count, helpers)
                     for count, helpers in zip(groups, (3, 2, 0, 0, 0, 3))]


def test_the_oracle_keys_its_entries_by_block(monkeypatch, bumpy3):
    # blocks of 4 points: a batch of 10 spans 3, the last one short
    monkeypatch.setattr(fields, "_BLOCK_BYTES", 4 * 8 * 3**4)
    blocks = 3
    spec = random_spec(bumpy3.chart, 33)
    pts = bumpy3.chart.sample(10, 34)
    with _evaluation_context():
        first = curvature_direct(bumpy3.chart, bumpy3.metric, spec, pts)
        keys = memo_keys()
        # a key ends in (batch token, order): each block is its own batch
        assert len({key[-2] for key in keys if key[0] in ORACLE_KINDS}) == blocks
        assert np.array_equal(curvature_direct(bumpy3.chart, bumpy3.metric, spec, pts), first)
        assert memo_keys() == keys  # a repeated call hits in every block
        added = []
        for name in BINDING_NAMES:
            before = memo_keys()
            curvature_direct(bumpy3.chart, bumpy3.metric, spec.with_zeroed(name), pts)
            added.append(sum(key[0] in H_TERMS for key in memo_keys() - before))
    # the one-block counts of a zeroed binding, once per block
    assert added == [blocks * count for count in (3, 1, 1, 1, 1, 3)]
