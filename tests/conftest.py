"""Shared fixtures and finite-difference oracles.

Finite differences live in the test suite only; library code differentiates
polynomial jets exactly. The helpers here give an independent numerical
check of every hand-coded derivative.
"""

import numpy as np
import pytest

from affconn import preset_manifold, random_spec


def central_diff(fn, pts, h=1e-6):
    """Central-difference derivative of a batched point function.

    fn maps (m, n) points to (m, *shape) values.  Returns (m, n, *shape)
    with the derivative axis inserted right after the batch axis, matching
    the jet layout used across the package (derivative indices first).
    """
    pts = np.asarray(pts, dtype=float)
    m, n = pts.shape
    base = np.asarray(fn(pts))
    out = np.empty((m, n) + base.shape[1:])
    for a in range(n):
        hi = pts.copy()
        hi[:, a] += h
        lo = pts.copy()
        lo[:, a] -= h
        out[:, a] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * h)
    return out


def same_bits(a, b) -> bool:
    """Equal arrays whose zeros also agree in sign."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def raw_config(manifold: dict, spec_seed: int, points: dict) -> dict:
    """A raw six-field config: the spec ``random_spec`` draws on the manifold
    at ``spec_seed``, written out term by term."""
    params = dict(manifold)
    man = preset_manifold(params.pop("preset"), params)
    spec = random_spec(man.chart, spec_seed)

    def poly(expr):
        return {"terms": [{"c": c, "e": list(e)} for e, c in expr.terms.items()]}

    raw = {
        "f1": poly(spec.f1.expr),
        "f2": poly(spec.f2.expr),
        "phi": [[poly(e) for e in row] for row in spec.phi.entries],
    }
    raw |= {name: [poly(c) for c in getattr(spec, name).comps] for name in ("u", "u1", "u2")}
    return {"manifold": manifold, "connection": {"raw": raw}, "points": points}


# A raw bumpy n = 3 config in the shape of perfbench's verify_cli input.
RAW_BUMPY3 = raw_config(
    {"preset": "bumpy", "n": 3, "eps": 0.05, "seed": 21}, 104729, {"count": 10, "seed": 5}
)


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


@pytest.fixture(scope="session")
def flat2():
    return preset_manifold("euclidean", {"n": 2})


@pytest.fixture(scope="session")
def flat3():
    return preset_manifold("euclidean", {"n": 3})


@pytest.fixture(scope="session")
def sphere():
    return preset_manifold("sphere2", {"r": 1.0})


@pytest.fixture(scope="session")
def halfplane():
    return preset_manifold("half_plane", {"k": 1.0})


@pytest.fixture(scope="session")
def bumpy2():
    return preset_manifold("bumpy", {"n": 2, "eps": 0.05, "seed": 11})


@pytest.fixture(scope="session")
def bumpy3():
    return preset_manifold("bumpy", {"n": 3, "eps": 0.05, "seed": 12})
