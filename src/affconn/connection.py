"""The unified connection: sharps, the Phi splitting, the deformation tensor
H, total coefficients, torsion, and non-metricity.

The connection is parameterized by two scalar fields f1, f2, three one-forms
u, u1, u2 and an endomorphism phi over a Riemannian metric g:

    nabla~_X Y = nabla_X Y + u(Y) phi1 X - u(X) phi2 Y - g(phi1 X, Y) U
                 - f1 {u1(X) Y + u1(Y) X - g(X, Y) U1} - f2 g(X, Y) U2

where U, U1, U2 are the metric sharps of u, u1, u2 and phi = phi1 + phi2 is
the split of phi into its g-self-adjoint and g-skew parts.  Everything here
is evaluated in the coordinate frame, batched over points.

Residuals are taken per point: the max-abs difference at a point over
max(1, the max-abs of the compared tensors at that point), then the worst
point.  Tolerances are scale-free across manifolds and across the points of
one batch.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParams, DimensionMismatch
from .fields import (
    Chart,
    Jet,
    PolynomialEndoField,
    PolynomialOneFormField,
    PolynomialScalarField,
    _blocks,
    _evaluation_context,
    _memo,
    _random_polynomials,
    as_points,
)
from .levi_civita import PointGeometry

__all__ = [
    "ConnectionSpec",
    "CORRUPTIBLE_TERMS",
    "Corruption",
    "GROUP_READS",
    "GROUPS",
    "H_TERMS",
    "PhiSplit",
    "PointFrame",
    "max_abs",
    "norm_residual",
    "point_max_abs",
    "point_residuals",
    "sharp",
    "split_phi",
    "deformation_h",
    "torsion_direct",
    "torsion_predicted",
    "nonmetricity_direct",
    "nonmetricity_predicted",
    "transpose_torsion_from_metric",
    "transpose_torsion_closed",
    "resolve_endo_jet",
    "evaluate_spec",
    "random_spec",
]

# The five addends of H, by name, for fault injection.
H_TERMS = ("h_u_phi1", "h_u_phi2", "h_phi1_u", "h_f1", "h_f2")

# The 14 addend groups of the curvature formula (``curvature_formula``), by
# display line, with the spec bindings each reads besides the metric.
GROUP_READS = {
    "riemann": (),
    "du_phi2": ("u", "phi"),
    "alpha_phi1": ("u", "phi"),
    "a_phi1": ("u", "phi"),
    "r0_mu": ("u", "phi"),
    "nabla_phi2": ("u", "phi"),
    "f1_block": ("f1", "u1", "u", "phi"),
    "f2_block": ("f2", "u2", "u", "phi"),
    "f1_sq": ("f1", "u1"),
    "f2_sq": ("f2", "u2"),
    "f1_f2": ("f1", "f2", "u1", "u2"),
    "xf1_block": ("f1", "u1"),
    "yf1_block": ("f1", "u1"),
    "grad_f2": ("f2", "u2"),
}

GROUPS = tuple(GROUP_READS)

CORRUPTIBLE_TERMS = H_TERMS + GROUPS


@dataclass(frozen=True)
class Corruption:
    """Double one named term (test hook): an H addend or a curvature formula
    group.  A name outside ``CORRUPTIBLE_TERMS`` raises ``BadParams``, so no
    fault can be asked for that no path would inject."""

    name: str

    def __post_init__(self):
        if self.name not in CORRUPTIBLE_TERMS:
            raise BadParams(
                f"unknown corruptible term {self.name!r}; choose one of "
                f"{', '.join(CORRUPTIBLE_TERMS)}"
            )


@dataclass(frozen=True)
class ConnectionSpec:
    """The six-field bundle (f1, f2, u, u1, u2, phi) over one chart.

    Aliased bindings (for example u1 = u) are the same object in both slots,
    so their evaluations are bit-identical by construction.
    """

    n: int
    f1: object
    f2: object
    u: object
    u1: object
    u2: object
    phi: object

    def __post_init__(self):
        for name in ("f1", "f2", "u", "u1", "u2", "phi"):
            f = getattr(self, name)
            if getattr(f, "n", None) != self.n:
                raise DimensionMismatch(
                    f"spec field {name!r} has dimension {getattr(f, 'n', None)}, "
                    f"expected {self.n}"
                )

    @classmethod
    def build(cls, n, f1=None, f2=None, u=None, u1=None, u2=None, phi=None):
        return cls(
            n=n,
            f1=f1 if f1 is not None else PolynomialScalarField.zero(n),
            f2=f2 if f2 is not None else PolynomialScalarField.zero(n),
            u=u if u is not None else PolynomialOneFormField.zero(n),
            u1=u1 if u1 is not None else PolynomialOneFormField.zero(n),
            u2=u2 if u2 is not None else PolynomialOneFormField.zero(n),
            phi=phi if phi is not None else PolynomialEndoField.zero(n),
        )

    @classmethod
    def zero(cls, n: int) -> "ConnectionSpec":
        return cls.build(n)

    def with_zeroed(self, name: str) -> "ConnectionSpec":
        """Copy with one binding replaced by the zero field (ablation tool).

        Zeroing ``u`` (etc.) also zeroes any alias of the same object, with
        the same zero object, so the aliases stay aliases.  There is one zero
        field per (kind, n), so every spec that zeroes a binding holds the
        same object there and an evaluation context computes its values once.
        """
        if name not in _BINDING_KINDS:
            raise BadParams(f"no spec binding named {name!r}")
        old = getattr(self, name)
        zero = _zero_field(_BINDING_KINDS[name], self.n)
        return replace(
            self, **{k: zero for k in _BINDING_KINDS if getattr(self, k) is old}
        )

    def jets(self, pts) -> dict:
        """The jet at the (m, n) batch ``pts`` of each binding that evaluates
        at points, keyed by field: aliased bindings get one jet, and a
        geometry-derived phi (see ``resolve_endo_jet``) is left out.

        The bindings are evaluated in one evaluation context (the caller's,
        if one is open), so the polynomial ones share one monomial table per
        basis (``fields._memo``); each keeps its own matmul.  A field's
        ``jet`` alone is the one-field case: the same plan, table and matmul.
        The jets are read-only, in a caller's context or not.
        """
        fields = dict.fromkeys(getattr(self, name) for name in _BINDING_KINDS)
        with _evaluation_context():
            return {f: f.jet(pts) for f in fields if not hasattr(f, "jet_geo")}


_BINDING_KINDS = {
    "f1": PolynomialScalarField,
    "f2": PolynomialScalarField,
    "u": PolynomialOneFormField,
    "u1": PolynomialOneFormField,
    "u2": PolynomialOneFormField,
    "phi": PolynomialEndoField,
}


@functools.cache
def _zero_field(kind, n: int):
    """The one zero field of ``kind`` in dimension ``n`` (fields are
    immutable, so it may be shared)."""
    return kind.zero(n)


def max_abs(*arrays) -> float:
    """Largest |entry| over ``arrays`` (0.0 if all are empty).  NaN anywhere
    gives NaN, so a residual built from it never passes ``res <= tol``."""
    return float(np.max([np.max(np.abs(a)) for a in arrays if a.size], initial=0.0))


def point_max_abs(a: np.ndarray) -> np.ndarray:
    """max|a_p| per point p: a reduction over every axis but the first, so a
    points-last array is never copied."""
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim)), initial=0.0)


def point_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max|a_p - b_p| / max(1, max|a_p|, max|b_p|) for each point p of two
    arrays of one shape; NaN where a_p or b_p holds NaN or inf.

    The batch is taken in point blocks (``fields._blocks``) into a length-m
    output, so the difference and its absolute value exist one block at a
    time; each point reduces over its own entries, so every block size gives
    the same bits."""
    out = np.empty(a.shape[0])
    for at in _blocks(a.shape[0], math.prod(a.shape[1:])):
        x, y = at(a), at(b)
        scale = np.maximum(np.maximum(point_max_abs(x), point_max_abs(y)), 1.0)
        at(out)[...] = point_max_abs(x - y) / scale
    return out


def norm_residual(a: np.ndarray, b: np.ndarray) -> float:
    """The worst per-point residual, max_p of ``point_residuals``; each point
    is scaled by its own tensors, so a large entry at one point cannot hide
    an error at another.  Non-finite if a or b holds NaN or inf."""
    return float(np.max(point_residuals(a, b), initial=0.0))


# A per-point residual is at most 2, since |a - b| <= 2 max(1, |a|, |b|):
# a tolerance of 2 or more could never fail, so it would switch its check off.
_TOLERANCE_LIMIT = 2.0


def _valid_tolerance(v: float, where: str) -> float:
    """``v`` if it can gate a residual: a real number, finite, above 0 and below 2."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise BadParams(f"{where}: expected a finite number")
    if not v > 0:
        raise BadParams(f"{where}: expected a positive number")
    if not v < _TOLERANCE_LIMIT:
        raise BadParams(f"{where}: expected a number below {_TOLERANCE_LIMIT:g}")
    return v


def sharp(eta: Jet, inv: Jet) -> Jet:
    """Raise a one-form: xi^k = g^km eta_m, with the exact 1-jet."""
    comp = np.einsum("pkm,pm->pk", inv.comp, eta.comp)
    d1 = np.einsum("pakm,pm->pak", inv.d1, eta.comp) + np.einsum(
        "pkm,pam->pak", inv.comp, eta.d1
    )
    return Jet(comp=comp, d1=d1)


@dataclass(frozen=True)
class PhiSplit:
    """g-self-adjoint / g-skew decomposition of phi.

    Phi_ij = g(phi d_i, d_j); Phi1/Phi2 are its symmetric and antisymmetric
    parts and phi1/phi2 their g-raisings.  Phi is stored as Phi1 + Phi2 so
    the recomposition identity holds to the bit (it differs from the raw
    product phi^m_i g_mj by at most one rounding).  Of the derivatives only
    the raised ones are kept: the 1-jets of Phi1 and Phi2 are read by
    ``split_phi`` alone, to build phi1_d1 and phi2_d1.
    """

    Phi: np.ndarray  # (m, n, n)
    Phi1: np.ndarray
    Phi2: np.ndarray
    phi1: np.ndarray  # (m, n, n), phi1[p, k, i] = (phi1)^k_i
    phi2: np.ndarray
    phi1_d1: np.ndarray  # (m, n, n, n), [p, a, k, i] = d_a (phi1)^k_i
    phi2_d1: np.ndarray


def split_phi(phi: Jet, mj: Jet, inv: Jet) -> PhiSplit:
    raw = np.einsum("pmi,pmj->pij", phi.comp, mj.comp)
    raw_d1 = np.einsum("pami,pmj->paij", phi.d1, mj.comp) + np.einsum(
        "pmi,pamj->paij", phi.comp, mj.d1
    )
    raw_t = raw.swapaxes(1, 2)
    raw_d1_t = raw_d1.swapaxes(2, 3)
    p1 = 0.5 * (raw + raw_t)
    p2 = 0.5 * (raw - raw_t)
    p1_d1 = 0.5 * (raw_d1 + raw_d1_t)
    p2_d1 = 0.5 * (raw_d1 - raw_d1_t)

    def raise_form(form, form_d1):
        comp = np.einsum("pim,pmk->pki", form, inv.comp)
        d1 = np.einsum("paim,pmk->paki", form_d1, inv.comp) + np.einsum(
            "pim,pamk->paki", form, inv.d1
        )
        return comp, d1

    phi1, phi1_d1 = raise_form(p1, p1_d1)
    phi2, phi2_d1 = raise_form(p2, p2_d1)
    return PhiSplit(
        Phi=p1 + p2,
        Phi1=p1,
        Phi2=p2,
        phi1=phi1,
        phi2=phi2,
        phi1_d1=phi1_d1,
        phi2_d1=phi2_d1,
    )


def _h_terms(g, u, u1, u2, f1, f2, split, U, U1, U2):
    """The five addends of H^k_ij, keyed by their fault-injection names."""
    n = g.shape[-1]
    eye = np.eye(n)
    rec = (
        np.einsum("pi,kj->pkij", u1, eye, order="F")
        + np.einsum("pj,ki->pkij", u1, eye, order="F")
        - np.einsum("pij,pk->pkij", g, U1)
    )
    return {
        "h_u_phi1": np.einsum("pj,pki->pkij", u, split.phi1),
        "h_u_phi2": -np.einsum("pi,pkj->pkij", u, split.phi2),
        "h_phi1_u": -np.einsum("pij,pk->pkij", split.Phi1, U),
        "h_f1": -f1[:, None, None, None] * rec,
        "h_f2": -f2[:, None, None, None] * np.einsum("pij,pk->pkij", g, U2),
    }


def deformation_h(
    g, u, u1, u2, f1, f2, split: PhiSplit, U, U1, U2, corrupt: Corruption | None = None
) -> np.ndarray:
    """H^k_ij = u_j phi1^k_i - u_i phi2^k_j - Phi1_ij U^k
    - f1 {u1_i d^k_j + u1_j d^k_i - g_ij U1^k} - f2 g_ij U2^k."""
    terms = _h_terms(g, u, u1, u2, f1, f2, split, U, U1, U2)
    if corrupt is not None and corrupt.name in terms:
        terms[corrupt.name] = 2.0 * terms[corrupt.name]
    h = np.zeros_like(terms["h_u_phi1"])  # sum()'s order and bits, one buffer
    for term in terms.values():
        h += term
    return h


def torsion_direct(gamma_tilde: np.ndarray) -> np.ndarray:
    """T~^k_ij = Gamma~^k_ij - Gamma~^k_ji; antisymmetric exactly."""
    return gamma_tilde - gamma_tilde.swapaxes(2, 3)


def torsion_predicted(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Theorem's torsion law T~(X, Y) = u(Y) phi X - u(X) phi Y."""
    half = np.einsum("pj,pki->pkij", u, phi)
    return half - half.swapaxes(2, 3)


def nonmetricity_direct(gamma_tilde: np.ndarray, mj: Jet) -> np.ndarray:
    """(nabla~_i g)_jk = d_i g_jk - Gamma~^m_ij g_mk - Gamma~^m_ik g_jm.

    The two lowered terms are one contraction and its (j,k) swap; adding
    them before subtracting keeps the result exactly symmetric in (j,k).
    """
    low = np.einsum("pmij,pmk->pijk", gamma_tilde, mj.comp)
    return mj.d1 - (low + low.swapaxes(2, 3))


def nonmetricity_predicted(g, u1, u2, f1, f2) -> np.ndarray:
    """Theorem's metricity law (nabla~_X g)(Y,Z) = 2 f1 u1(X) g(Y,Z)
    + f2 {u2(Y) g(X,Z) + u2(Z) g(X,Y)}."""
    return (
        2.0 * f1[:, None, None, None] * np.einsum("pi,pjk->pijk", u1, g)
        + f2[:, None, None, None]
        * (np.einsum("pj,pik->pijk", u2, g) + np.einsum("pk,pij->pijk", u2, g))
    )


def transpose_torsion_from_metric(t_direct, g, ginv) -> np.ndarray:
    """Solve g(T~'(X, Y), Z) = g(T~(Z, X), Y) for T~'^l_ij."""
    lowered = np.einsum("pmki,pmj->pijk", t_direct, g)
    return np.einsum("pijk,pkl->plij", lowered, ginv)


def transpose_torsion_closed(u, split: PhiSplit, U) -> np.ndarray:
    """T~'(X, Y) = u(X) phi1 Y - u(X) phi2 Y - Phi(X, Y) U."""
    return np.einsum("pi,plj->plij", u, split.phi1 - split.phi2) - np.einsum(
        "pij,pl->plij", split.Phi, U
    )


def resolve_endo_jet(phi_field, geo: PointGeometry) -> Jet:
    """Plain fields evaluate at points; derived fields (symmetric part,
    Ricci operator) evaluate against the geometry bundle."""
    if hasattr(phi_field, "jet_geo"):
        return phi_field.jet_geo(geo)
    return phi_field.jet(geo.pts)


@dataclass
class PointFrame:
    """One run of ``spec`` at one batch of points, with the fault ``corrupt``
    (or None): everything Theorem-1 checks need there.

    H, Gamma~, torsion and nabla~ g are computed on first read, with ``corrupt``
    applied to H: the curvature formula reads none, so a frame built only for
    it never computes them.  Each frame computes its own, so they are writable.
    ``curvature.curvatures(frame)`` runs both curvature paths with ``corrupt``.
    """

    geo: PointGeometry
    spec: ConnectionSpec
    f1: object
    f2: object
    u: Jet
    u1: Jet
    u2: Jet
    phi: Jet
    split: PhiSplit
    u_sharp: Jet
    u1_sharp: Jet
    u2_sharp: Jet
    corrupt: Corruption | None = None

    @functools.cached_property
    def h(self) -> np.ndarray:
        return deformation_h(
            self.geo.g,
            self.u.comp,
            self.u1.comp,
            self.u2.comp,
            self.f1.value,
            self.f2.value,
            self.split,
            self.u_sharp.comp,
            self.u1_sharp.comp,
            self.u2_sharp.comp,
            corrupt=self.corrupt,
        )

    @functools.cached_property
    def gamma_tilde(self) -> np.ndarray:
        return self.geo.gamma + self.h

    @functools.cached_property
    def torsion(self) -> np.ndarray:
        return torsion_direct(self.gamma_tilde)

    @functools.cached_property
    def nabla_g(self) -> np.ndarray:
        return nonmetricity_direct(self.gamma_tilde, self.geo.metric)

    def law_rows(self) -> list:
        """The torsion and metricity laws as (check, residual, tolerance key) rows."""
        t_law = torsion_predicted(self.u.comp, self.phi.comp)
        q_law = nonmetricity_predicted(
            self.geo.g, self.u1.comp, self.u2.comp, self.f1.value, self.f2.value
        )
        return [
            ("torsion_law", norm_residual(self.torsion, t_law), "torsion"),
            ("metricity_law", norm_residual(self.nabla_g, q_law), "metricity"),
        ]


def evaluate_spec(
    chart: Chart,
    metric_field,
    spec: ConnectionSpec,
    pts,
    order: int = 1,
    corrupt: Corruption | None = None,
) -> PointFrame:
    if spec.n != chart.n:
        raise DimensionMismatch(
            f"spec dimension {spec.n} does not match chart dimension {chart.n}"
        )
    # Geometry-derived phi fields may need deeper metric jets than the caller
    # asked for (the Ricci operator's 1-jet takes metric order 3).
    order = max(order, getattr(spec.phi, "min_metric_order", 1))
    pts = as_points(pts, chart.n)  # PointGeometry checks it is inside the chart
    with _evaluation_context():  # the metric shares the bindings' tables
        geo = _memo("geometry", (chart, metric_field), pts, order,
                    lambda: PointGeometry(chart, metric_field, pts, order=order))
        jets = spec.jets(pts)
        phi = jets.get(spec.phi)
        if phi is None:
            phi = resolve_endo_jet(spec.phi, geo)
    f1, f2 = jets[spec.f1], jets[spec.f2]
    # Aliased bindings get one jet object and one sharp, hence bit-identical
    # values, inside an evaluation context or not.
    forms = (spec.u, spec.u1, spec.u2)
    sharps = {
        w: _memo("sharp", (w, metric_field), pts, order, lambda: sharp(jets[w], geo.inv))
        for w in dict.fromkeys(forms)
    }
    u, u1, u2 = (jets[w] for w in forms)
    us, u1s, u2s = (sharps[w] for w in forms)
    split = _memo("split_phi", (spec.phi, metric_field), pts, order,
                  lambda: split_phi(phi, geo.metric, geo.inv))
    return PointFrame(
        geo=geo,
        spec=spec,
        f1=f1,
        f2=f2,
        u=u,
        u1=u1,
        u2=u2,
        phi=phi,
        split=split,
        u_sharp=us,
        u1_sharp=u1s,
        u2_sharp=u2s,
        corrupt=corrupt,
    )


def random_spec(chart: Chart, rng, degree: int = 3) -> ConnectionSpec:
    """All six bindings as dense random polynomials, coefficients in [-1, 1].

    phi is a full endomorphism (neither symmetric nor skew) so both phi1 and
    phi2 branches of H are exercised.  Generation order is fixed, so a seeded
    rng reproduces the spec: its 2 + 3n + n^2 polynomials come from one draw,
    in the order of the bindings.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    n = chart.n
    polys = iter(_random_polynomials(n, rng, 2 + 3 * n + n * n, degree))

    def take(count: int) -> list:
        return list(itertools.islice(polys, count))

    f1, f2 = (PolynomialScalarField(n, p) for p in take(2))
    u, u1, u2 = (PolynomialOneFormField(n, take(n)) for _ in range(3))
    phi = PolynomialEndoField(n, [take(n) for _ in range(n)])
    return ConnectionSpec(n=n, f1=f1, f2=f2, u=u, u1=u1, u2=u2, phi=phi)
