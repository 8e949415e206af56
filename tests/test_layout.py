"""Points-last memory: results independent of the batch, and an einsum audit.

Batched arrays are indexed [p, ...] but stored with the point axis last (see
affconn.fields).  These tests pin the two things that layout must keep: a
point's values do not depend on which batch it is evaluated in, and no
batched einsum operand arrives points-first, where einsum's inner loops
would run over 2-4 tensor slots instead of over the points.
"""

import numpy as np
import pytest

from affconn import (
    curvature_direct,
    curvature_formula,
    evaluate_spec,
    needed_order,
    nonmetricity_direct,
    norm_residual,
    preset_manifold,
    random_spec,
    torsion_direct,
)

MANIFOLDS = [
    ("bumpy", {"n": 3, "eps": 0.05, "seed": 12}),
    ("sphere2", {"r": 1.0}),
]

# Fixed before the first run.  Each point goes through the same operations
# whatever its neighbours, except the jet evaluator's matmul, which may block
# its sums differently at another batch size and so move a jet by a few
# ulps.  The curvature algebra amplifies that far less than 1e4-fold (its
# oracle residuals stay near 1e-15 on these charts), so 1e-12 per point.
BATCH_TOL = 1e-12


def comparison(man, spec, pts) -> dict:
    frame = evaluate_spec(man.chart, man.metric, spec, pts, order=needed_order(spec))
    return {
        "gamma_tilde": frame.gamma_tilde,
        "torsion": torsion_direct(frame.gamma_tilde),
        "nabla_g": nonmetricity_direct(frame.gamma_tilde, frame.geo.metric),
        "formula": curvature_formula(frame)[0],
        "oracle": curvature_direct(man.chart, man.metric, spec, pts),
    }


@pytest.mark.parametrize("name, params", MANIFOLDS)
def test_a_batch_matches_the_same_points_ten_at_a_time(name, params):
    man = preset_manifold(name, params)
    spec = random_spec(man.chart, 40)
    pts = man.chart.sample(256, 41)
    whole = comparison(man, spec, pts)
    parts = [comparison(man, spec, pts[i : i + 10]) for i in range(0, len(pts), 10)]
    for key, arr in whole.items():
        sliced = np.concatenate([part[key] for part in parts])
        assert norm_residual(arr, sliced) <= BATCH_TOL, key


@pytest.mark.parametrize(
    "name, params",
    [
        ("bumpy", {"n": 2, "eps": 0.05, "seed": 11}),
        ("sphere2", {"r": 1.0}),
        ("euclidean", {"n": 2}),
    ],
)
def test_every_batched_einsum_operand_is_points_last(monkeypatch, name, params):
    einsum = np.einsum
    calls = []
    points_first = set()

    def audited(spec, *operands, **kwargs):
        calls.append(spec)
        inputs = spec.split("->")[0].split(",")
        for sub, op in zip(inputs, operands):
            if sub.startswith("p") and op.strides[0] != op.itemsize:
                points_first.add(f"{spec} gets {sub} points-first")
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", audited)
    man = preset_manifold(name, params)
    spec = random_spec(man.chart, 42)
    comparison(man, spec, man.chart.sample(64, 43))
    assert len(calls) > 100  # the wrapper saw the comparison
    assert not points_first, sorted(points_first)
