"""Curvature of the unified connection, two independent ways.

``curvature_formula`` assembles the closed-form expression for R~ out of the
helper tensors alpha/A, beta/B, mu and R0; its fourteen addend groups (one
per display line of the source formula) are named and individually
toggleable.  ``curvature_direct`` is the oracle: it rebuilds Gamma~ = Gamma
+ H from raw field jets and differentiates it by a mechanical product rule,
so the two paths share no helper tensor and no derivative; ``curvatures``
runs both on one frame.  ``diagnose`` turns a mismatch into an attribution
table plus a minimal failing configuration.

Curvature layout: ``r[p, l, i, j, k]`` is the d_l component of R~(d_i, d_j)
d_k.  The exterior derivative convention is 2du(d_i, d_j) = d_i u_j - d_j u_i.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .connection import (
    CORRUPTIBLE_TERMS,
    GROUP_READS,
    GROUPS,
    Corruption,
    H_TERMS,
    ConnectionSpec,
    PointFrame,
    _valid_tolerance,
    evaluate_spec,
    max_abs,
    norm_residual,
    point_max_abs,
    point_residuals,
    sharp,
)
from .fields import (
    Chart, Jet, _blocks, _evaluation_context, _memo, _spd_inverse, _whole, batch_zeros,
)
from .levi_civita import (
    PointGeometry,
    christoffel,
    cov_deriv_endo,
    cov_deriv_oneform,
    cov_deriv_vector,
    riemann,
)

__all__ = [
    "GROUPS",
    "GROUP_READS",
    "CORRUPTIBLE_TERMS",
    "EtaHelpers",
    "CurvatureReport",
    "eta_helpers",
    "mu_tensor",
    "r0",
    "exterior_2du",
    "curvature_formula",
    "curvature_direct",
    "curvatures",
    "needed_order",
    "compare_curvature",
    "diagnose",
    "BINDING_NAMES",
]

BINDING_NAMES = ("u", "u1", "u2", "f1", "f2", "phi")


class _Groups(Mapping):
    """The 14 groups of one ``curvature_formula`` call; a read builds one on the whole batch."""

    def __init__(self, read):
        self._read = read

    def __getitem__(self, name):
        return self._read(name)  # a KeyError for a name not in GROUP_READS

    def __iter__(self):
        return iter(GROUPS)

    def __len__(self):
        return len(GROUPS)


@dataclass(frozen=True)
class EtaHelpers:
    """beta/B and alpha/A for one one-form eta.

    beta[p, i, j] = beta(eta, d_i, d_j); bvec[p, i, l] = B(eta, d_i)^l
    (second index is the vector slot); alpha and avec likewise.
    """

    beta: np.ndarray
    bvec: np.ndarray
    alpha: np.ndarray
    avec: np.ndarray


def _sharp_for(frame: PointFrame, eta: Jet):
    for jet, vj in (
        (frame.u, frame.u_sharp),
        (frame.u1, frame.u1_sharp),
        (frame.u2, frame.u2_sharp),
    ):
        if eta is jet:
            return vj
    return sharp(eta, frame.geo.inv)


def eta_helpers(eta: Jet, frame: PointFrame) -> EtaHelpers:
    """beta(eta,X,Y) = (nabla_X eta)Y + u(X) eta(phi2 Y) - eta(phi1 X) u(Y)
    + eta(U) g(phi1 X, Y); B is its g-raising on the Y slot; alpha and A
    subtract half of the eta(U) term."""
    geo, split = frame.geo, frame.split
    u = frame.u.comp
    big_u = frame.u_sharp.comp
    xi = _sharp_for(frame, eta)
    nab_eta = cov_deriv_oneform(eta.comp, eta.d1, geo.gamma)
    nab_xi = cov_deriv_vector(xi.comp, xi.d1, geo.gamma)
    eta_phi2 = np.einsum("pm,pmj->pj", eta.comp, split.phi2)
    eta_phi1 = np.einsum("pm,pmi->pi", eta.comp, split.phi1)
    eta_u = np.einsum("pm,pm->p", eta.comp, big_u)
    beta = (
        nab_eta
        + np.einsum("pi,pj->pij", u, eta_phi2)
        - np.einsum("pi,pj->pij", eta_phi1, u)
        + eta_u[:, None, None] * split.Phi1
    )
    phi2_xi = np.einsum("plm,pm->pl", split.phi2, xi.comp)
    bvec = (
        nab_xi
        - np.einsum("pi,pl->pil", u, phi2_xi)
        - np.einsum("pi,pl->pil", eta_phi1, big_u)
        + np.einsum("p,pli->pil", eta_u, split.phi1)
    )
    alpha = beta - 0.5 * eta_u[:, None, None] * split.Phi1
    avec = bvec - 0.5 * np.einsum("p,pli->pil", eta_u, split.phi1)
    return EtaHelpers(beta=beta, bvec=bvec, alpha=alpha, avec=avec)


def mu_tensor(frame: PointFrame) -> np.ndarray:
    """mu(X, Y) = (nabla_X phi1) Y - u(X) phi2 phi1 Y, as mu[p, k, i, j]."""
    split = frame.split
    nab1 = cov_deriv_endo(split.phi1, split.phi1_d1, frame.geo.gamma)
    phi2_phi1 = np.einsum("pkm,pmj->pkj", split.phi2, split.phi1)
    return np.einsum("pikj->pkij", nab1) - np.einsum(
        "pi,pkj->pkij", frame.u.comp, phi2_phi1
    )


def r0(g: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R0(X, Y)Z = g(Y, Z) X - g(X, Z) Y for batched vectors."""
    gyz = np.einsum("pi,pij,pj->p", y, g, z)
    gxz = np.einsum("pi,pij,pj->p", x, g, z)
    return gyz[:, None] * x - gxz[:, None] * y


def exterior_2du(eta: Jet) -> np.ndarray:
    """2du(d_i, d_j) = d_i eta_j - d_j eta_i; antisymmetric exactly."""
    return eta.d1 - eta.d1.swapaxes(1, 2)


def _minus_swap(t: np.ndarray) -> np.ndarray:
    """t(X, Y) - t(Y, X) for t in the [p, l, i, j, k] layout; the swapped
    term is a view of t."""
    return t - t.swapaxes(2, 3)


def curvature_formula(frame: PointFrame) -> tuple[np.ndarray, Mapping]:
    """Assemble the closed-form R~ from its 14 named groups.

    Returns (total, groups).  ``groups`` is a read-only mapping over
    ``GROUPS``; reading a group builds it on the whole batch, an
    (m, n, n, n, n) array in the [p, l, i, j, k] layout.  A copy of the
    group ``frame.corrupt`` names, if any, is doubled, in both.

    ``total`` is summed in ``GROUPS`` order into a fresh buffer, block by
    block of points (``fields._blocks``), so a call holds one block's groups
    at a time.  The helpers of rank at most 4 (beta/alpha of u, u1 and u2, mu,
    nabla phi2, 2du, 2du1, the f1 recurrence) are built once per call on the
    whole batch, when a group first needs them.  The ``riemann`` group is
    Levi-Civita R built in its block from the block's rows of the metric's
    2-jet, the inverse's 1-jet and ``geo.gamma``, the arithmetic of
    ``geo.riemann`` point by point, so neither the call nor the geometry
    holds a whole-batch Christoffel 1-jet or R.

    Each group, the beta/alpha helpers and the f1 recurrence are memoised
    (``fields._memo``), read-only, by the frame's jets of the bindings they
    read (``GROUP_READS``) and its geometry, so inside an evaluation context
    a spec with one binding zeroed recomputes only the groups that read it.
    A group is keyed by its block's points, in the caller's context only;
    one block is keyed as a read of ``groups`` is.

    Most display lines are a term minus the same term with X and Y swapped.
    Such a pair is one einsum and its ``swapaxes(2, 3)`` view, in the place
    the swapped term holds in the display line's sum.  Each entry is then
    the same product of the same operands, and no sum may be regrouped, so
    the bits are those of one einsum per term.  A group of several rank-5
    terms sums them into one buffer in place, in the same order.
    """
    geo = frame.geo
    geo.metric.require_order(2, "curvature_formula")
    g, eye = geo.g, np.eye(geo.n)
    split = frame.split
    u, u1, u2 = frame.u.comp, frame.u1.comp, frame.u2.comp
    big_u = frame.u_sharp.comp
    big_u1 = frame.u1_sharp.comp
    big_u2 = frame.u2_sharp.comp
    f1, f2 = frame.f1.value, frame.f2.value
    gf1, gf2 = frame.f1.grad, frame.f2.grad
    phi_full = frame.phi.comp
    big_phi = split.Phi

    def memo(kind, reads, pts, compute):
        owners = (*(getattr(frame, name) for name in reads), geo)
        return _memo(kind, owners, pts, geo.order, compute)

    built = {}  # the helpers, each once per call, on the whole batch

    def once(key, compute):
        return built[key] if key in built else built.setdefault(key, compute())

    def helpers(name):
        # beta/alpha of eta also read u, its sharp, and the Phi split
        eta = getattr(frame, name)
        return once(name, lambda: memo("eta_helpers", (name, "u", "phi"), geo.pts,
                                       lambda: eta_helpers(eta, frame)))

    def rec():
        return once("rec", lambda: memo("rec", ("u1",), geo.pts, lambda: (
            np.einsum("pj,lk->pljk", u1, eye, order="F")
            + np.einsum("pk,lj->pljk", u1, eye, order="F")
            - np.einsum("pjk,pl->pljk", g, big_u1)
        )))

    def du_phi2(at):
        du = once("du", lambda: exterior_2du(frame.u))
        return -np.einsum("pij,plk->plijk", at(du), at(split.phi2))

    def alpha_phi1(at):
        alpha = at(helpers("u").alpha)
        return _minus_swap(np.einsum("pik,plj->plijk", alpha, at(split.phi1)))

    def a_phi1(at):
        avec = at(helpers("u").avec)
        return _minus_swap(np.einsum("pik,pjl->plijk", at(split.Phi1), avec))

    def r0_mu(at):
        mu_rows = at(once("mu", lambda: mu_tensor(frame)))
        mud = mu_rows - mu_rows.swapaxes(2, 3)
        gmud = np.einsum("pmij,pmk->pijk", mud, at(g))
        group = np.einsum("pk,plij->plijk", at(u), mud)
        group -= np.einsum("pijk,pl->plijk", gmud, at(big_u))
        return group

    def nabla_phi2(at):
        nab2 = once("nab2", lambda: cov_deriv_endo(split.phi2, split.phi2_d1, geo.gamma))
        return _minus_swap(np.einsum("pi,pjlk->plijk", at(u), at(nab2)))

    def f1_block(at):
        # R0(phi X, U1)Z = u1(Z) phi X - g(phi X, Z) U1, with full phi.
        r0_phix_u1 = np.einsum("pk,pli->plik", at(u1), at(phi_full)) - np.einsum(
            "pik,pl->plik", at(big_phi), at(big_u1)
        )
        beta_eye = np.einsum("pik,lj->plijk", at(helpers("u1").beta), eye, order="F")
        g_bvec = np.einsum("pik,pjl->plijk", at(g), at(helpers("u1").bvec))
        u_r0 = np.einsum("pj,plik->plijk", at(u), r0_phix_u1)
        du1 = once("du1", lambda: exterior_2du(frame.u1))
        group = np.einsum("pij,lk->plijk", at(du1), eye, order="F")
        group -= beta_eye.swapaxes(2, 3)
        group += beta_eye
        group -= g_bvec.swapaxes(2, 3)
        group += g_bvec
        group += u_r0
        group -= u_r0.swapaxes(2, 3)
        group *= -at(f1)[:, None, None, None, None]
        return group

    def f2_block(at):
        phi_u = np.einsum("pjk,pi,pl->plijk", at(big_phi), at(u), at(big_u2))
        g_bvec = np.einsum("pik,pjl->plijk", at(g), at(helpers("u2").bvec))
        # ((T - T') - S') + S, in the order of the display line
        group = _minus_swap(phi_u)
        group -= g_bvec.swapaxes(2, 3)
        group += g_bvec
        group *= at(f2)[:, None, None, None, None]
        return group

    def f1_sq(at):
        u1_u1 = np.einsum("pm,pm->p", at(u1), at(big_u1))
        r0_x_u1_u1 = np.multiply(u1_u1[:, None, None], eye, order="F") - np.einsum(
            "pi,pl->pli", at(u1), at(big_u1)
        )
        r0_x_y_u1 = np.einsum("pj,li->plij", at(u1), eye, order="F") - np.einsum(
            "pi,lj->plij", at(u1), eye, order="F"
        )
        group = _minus_swap(np.einsum("pjk,pli->plijk", at(g), r0_x_u1_u1))
        group -= np.einsum("pk,plij->plijk", at(u1), r0_x_y_u1)
        group *= -(at(f1) * at(f1))[:, None, None, None, None]
        return group

    def f2_sq(at):
        group = _minus_swap(np.einsum("pjk,pi,pl->plijk", at(g), at(u2), at(big_u2)))
        group *= (at(f2) * at(f2))[:, None, None, None, None]
        return group

    def f1_f2(at):
        # R0(X, U2)U1 - u2(X) U1, as a [p, l, i] vector-valued slot.
        u2_u1 = np.einsum("pm,pm->p", at(u2), at(big_u1))
        vec_f1f2 = (
            np.multiply(u2_u1[:, None, None], eye, order="F")
            - np.einsum("pi,pl->pli", at(u1), at(big_u2))
            - np.einsum("pi,pl->pli", at(u2), at(big_u1))
        )
        group = _minus_swap(np.einsum("pjk,pli->plijk", at(g), vec_f1f2))
        group *= (at(f1) * at(f2))[:, None, None, None, None]
        return group

    def grad_f2(at):
        return _minus_swap(np.einsum("pj,pik,pl->plijk", at(gf2), at(g), at(big_u2)))

    formulas = {
        # Levi-Civita R from the block's metric and inverse jets and Gamma:
        # no whole-batch derivative of Gamma or R is kept on the geometry
        "riemann": lambda at: riemann(christoffel(
            Jet(*map(at, geo.metric.levels[:3])), Jet(*map(at, geo.inv.levels[:2])),
            at(geo.gamma),
        )).r,
        "du_phi2": du_phi2,
        "alpha_phi1": alpha_phi1,
        "a_phi1": a_phi1,
        "r0_mu": r0_mu,
        "nabla_phi2": nabla_phi2,
        "f1_block": f1_block,
        "f2_block": f2_block,
        "f1_sq": f1_sq,
        "f2_sq": f2_sq,
        "f1_f2": f1_f2,
        "xf1_block": lambda at: -np.einsum("pi,pljk->plijk", at(gf1), at(rec())),
        "yf1_block": lambda at: np.einsum("pj,plik->plijk", at(gf1), at(rec())),
        "grad_f2": grad_f2,
    }

    def group(name, at=_whole, pts=geo.pts):
        value = memo(name, GROUP_READS[name], pts, lambda: formulas[name](at))
        if frame.corrupt is not None and frame.corrupt.name == name:
            value = 2.0 * value
        return value

    total = batch_zeros(geo.m, (geo.n,) * 4)  # sum()'s order and bits, one buffer
    for at in _blocks(geo.m, geo.n**4):
        pts, rows = at(geo.pts), at(total)
        for name in GROUPS:
            rows += group(name, at, pts)
    built.clear()  # a caller that keeps ``groups`` keeps no helper it has not read
    return total, _Groups(group)


def needed_order(spec: ConnectionSpec) -> int:
    """Metric jet order the curvature comparison needs: at least 2, more if
    phi is a geometry-derived field with deeper requirements (the Ricci
    operator's 1-jet takes metric order 3)."""
    return max(2, getattr(spec.phi, "min_metric_order", 1))


@functools.cache
def _jein_dspecs(spec: str) -> tuple:
    """Per operand of ``spec``, the einsum of its derivative term: the axis
    ``a`` inserted after ``p`` in that operand and in the output.  Batched
    operands and the output start with ``p``, and ``a`` is free; an operand
    without ``p`` is a constant and gets None."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    return tuple(
        ",".join(ins[:t] + ["pa" + s[1:]] + ins[t + 1 :]) + "->pa" + out[1:]
        if s.startswith("p") else None
        for t, s in enumerate(ins)
    )


def _jein(spec: str, *operands, order: str = "K") -> Jet:
    """Product rule for an einsum over jets: the value is the einsum of the
    values, the derivative one einsum per ``Jet`` operand with that operand's
    1-jet in its place.  Plain arrays are constants; ``order`` is einsum's."""
    vals = [o.comp if isinstance(o, Jet) else o for o in operands]
    d1 = None
    for t, dspec in enumerate(_jein_dspecs(spec)):
        if isinstance(operands[t], Jet):
            args = vals.copy()
            args[t] = operands[t].d1
            term = np.einsum(dspec, *args, order=order)
            if d1 is None:
                d1 = term
            else:  # a spec with two operands or more: each term is a new array
                d1 += term
    return Jet(np.einsum(spec, *vals, order=order), d1)


def curvature_direct(
    chart: Chart,
    metric_field,
    spec: ConnectionSpec,
    pts,
    corrupt: Corruption | None = None,
) -> np.ndarray:
    """Coordinate oracle: R~^l_ijk from the exact 1-jet of Gamma~ = Gamma + H.

    Every intermediate (inverse metric, Christoffel, Phi split, sharps, H) is
    rebuilt here from raw field jets and written once, as its value: ``_jein``
    derives its 1-jet by the product rule.  Only d(g^-1) is written out.
    Nothing is shared with curvature_formula's helper-tensor path: in an
    evaluation context the intermediates and the five clean H addends are
    memoised under the oracle's own keys (each addend by the bindings it
    reads), and only the raw field jets, with the monomial tables they
    are computed from, are common to both paths.  The two paths share one
    routine, not a tensor: g^-1's value comes from ``fields._spd_inverse``
    on each path, applied here to the block's own metric rows.
    ``corrupt`` doubles a copy of the H addend it names, if any; Gamma~ is
    summed in a fixed order into fresh buffers, so no memoised value is written.

    The raw jets are evaluated once, on the whole batch, since the jet
    evaluator's matmul may round differently at another batch size, and in
    one evaluation context (the caller's, if one is open), so they share
    monomial tables.  Everything after them runs block by block
    (``fields._blocks``, the loop ``curvature_formula`` runs too, on tensors
    of its own), ``_BLOCK_BYTES`` of curvature at a time, so its temporaries
    stay cache-sized (README, "Memory layout"), and is memoised per block, keyed
    by the block's points, in the caller's context only: a context opened
    around the block loop would hold every block's intermediates until the
    call returned.  A point's arithmetic does not depend on its block, so
    every block size gives the same bits; a batch that fits in one block
    goes through as it is.
    """
    pts = chart.require_inside(pts)
    order = needed_order(spec)
    with _evaluation_context():  # the metric shares the bindings' tables
        g = metric_field.jet(pts, order=order)
        jets = spec.jets(pts)
        phi = jets.get(spec.phi)
        if phi is None:
            phi = spec.phi.jet_geo(PointGeometry(chart, metric_field, pts, order=order))
    f1, f2 = (Jet(j.value, j.grad) for j in (jets[spec.f1], jets[spec.f2]))
    u, u1, u2 = (jets[w] for w in (spec.u, spec.u1, spec.u2))

    def block_half(pts, g, f1, f2, u, u1, u2, phi):
        """The half of R~ at one block that its X<->Y swap completes."""

        def oracle_memo(kind, compute, *fields):
            return _memo(kind, (*fields, metric_field), pts, order, compute)

        def inverse():
            ginv_v = _spd_inverse(g.comp)
            dg_ginv = np.einsum("pkim,pmj->pkij", g.d1, ginv_v)
            return Jet(ginv_v, -np.einsum("pim,pkmj->pkij", ginv_v, dg_ginv))

        def christoffel_symbols():
            dg = Jet(g.d1, g.d2)  # d_k g_ij as a field of its own
            low = 0.5 * (_jein("pimj->pmij", dg) + _jein("pjmi->pmij", dg) - dg)
            return _jein("pkm,pmij->pkij", ginv, low)

        def phi_split():
            raw = _jein("pmi,pmj->pij", phi, g)
            p1 = 0.5 * (raw + _jein("pji->pij", raw))
            phi1 = _jein("pim,pmk->pki", p1, ginv)
            return p1, phi1, phi - phi1  # raising Phi1 + Phi2 = Phi gives back phi

        def recurrence():
            u1_eye = _jein("pi,kj->pkij", u1, np.eye(chart.n), order="F")
            return u1_eye + _jein("pkji->pkij", u1_eye) - _jein("pij,pk->pkij", g, big_u1)

        ginv = oracle_memo("oracle_inverse", inverse)
        gamma = oracle_memo("oracle_gamma", christoffel_symbols)
        p1, phi1, phi2 = oracle_memo("oracle_phi_split", phi_split, spec.phi)
        big_u, big_u1, big_u2 = (
            oracle_memo("oracle_sharp", lambda: _jein("pkm,pm->pk", ginv, jet), w)
            for w, jet in ((spec.u, u), (spec.u1, u1), (spec.u2, u2))
        )
        rec = oracle_memo("oracle_rec", recurrence, spec.u1)
        # each H addend up to its sign, keyed by fault-injection name, with the
        # bindings it reads besides the metric
        addends = {
            "h_u_phi1": (lambda: _jein("pj,pki->pkij", u, phi1), spec.u, spec.phi),
            "h_u_phi2": (lambda: _jein("pi,pkj->pkij", u, phi2), spec.u, spec.phi),
            "h_phi1_u": (lambda: _jein("pij,pk->pkij", p1, big_u), spec.u, spec.phi),
            "h_f1": (lambda: _jein("p,pkij->pkij", f1, rec), spec.f1, spec.u1),
            "h_f2": (lambda: _jein("p,pij,pk->pkij", f2, g, big_u2), spec.f2, spec.u2),
        }
        h = {name: oracle_memo(name, *addend) for name, addend in addends.items()}
        if corrupt is not None and corrupt.name in h:
            h[corrupt.name] = 2.0 * h[corrupt.name]
        gt = gamma + h["h_u_phi1"]  # one buffer per level, summed left to right
        comp, d1 = gt.comp, gt.d1
        for name in ("h_u_phi2", "h_phi1_u", "h_f1", "h_f2"):
            comp -= h[name].comp
            d1 -= h[name].d1
        return np.einsum("piljk->plijk", gt.d1) + np.einsum("plim,pmjk->plijk", gt.comp, gt.comp)

    jets = (g, f1, f2, u, u1, u2, phi)
    r = batch_zeros(pts.shape[0], (chart.n,) * 4)
    for at in _blocks(pts.shape[0], chart.n**4):
        rows = jets if at is _whole else (Jet(*map(at, jet.levels)) for jet in jets)
        half = block_half(at(pts), *rows)
        np.subtract(half, half.swapaxes(2, 3), out=at(r))
    return r


def curvatures(frame: PointFrame) -> tuple[np.ndarray, Mapping, np.ndarray]:
    """(total, groups, direct): R~ by ``curvature_formula(frame)`` and by
    ``curvature_direct`` on the frame's spec and points, each path doubling
    the term of ``frame.corrupt`` it owns."""
    total, groups = curvature_formula(frame)
    geo = frame.geo
    return total, groups, curvature_direct(
        geo.chart, geo.metric_field, frame.spec, geo.pts, corrupt=frame.corrupt)


@dataclass(frozen=True)
class CurvatureReport:
    point: np.ndarray
    formula: np.ndarray  # (n, n, n, n)
    direct: np.ndarray
    residual: float
    term_contributions: dict


def compare_curvature(
    chart: Chart,
    metric_field,
    spec: ConnectionSpec,
    pts,
    corrupt: Corruption | None = None,
) -> list[CurvatureReport]:
    """Formula vs direct oracle at each point; ``corrupt`` (if any) doubles
    the named term in whichever path owns it."""
    with _evaluation_context():  # each group is read where the total was built
        formula, groups, direct = _run_both(chart, metric_field, spec, pts, corrupt)
        contribs = {name: point_max_abs(arr) for name, arr in groups.items()}
    pts = chart.require_inside(pts)
    residuals = point_residuals(formula, direct)
    return [
        CurvatureReport(
            point=pts[p],
            formula=formula[p],
            direct=direct[p],
            residual=float(residuals[p]),
            term_contributions={name: float(c[p]) for name, c in contribs.items()},
        )
        for p in range(pts.shape[0])
    ]


def _run_both(chart, metric_field, spec, pts, corrupt):
    return curvatures(evaluate_spec(
        chart, metric_field, spec, pts, order=needed_order(spec), corrupt=corrupt))


def _global_residual(chart, metric_field, spec, pts, corrupt) -> float:
    formula, _, direct = _run_both(chart, metric_field, spec, pts, corrupt)
    return norm_residual(formula, direct)


def diagnose(
    chart: Chart,
    metric_field,
    spec: ConnectionSpec,
    pts,
    tolerance: float = 1e-8,
    corrupt: Corruption | None = None,
) -> dict:
    """Attribution report for the formula-vs-oracle comparison.

    The observed mismatch D = formula - direct is least-squares aligned with
    one candidate tensor per corruptible term: a formula group's candidate is
    its clean value; an H term's candidate is the direct oracle's response to
    doubling that term.  ``explained_fraction`` is 1 - ||D - c*C||^2/||D||^2
    for the best scalar c, so a single corrupted term scores ~1.  A failing
    comparison with a finite residual also triggers a greedy
    minimal-failing-configuration search over zeroed field bindings.  All
    of its runs share one evaluation context (see ``fields._memo``): the
    clean re-runs and H-term bumps reuse every group and H addend of the
    first run, and a spec with one binding zeroed recomputes only the
    groups and addends that read it (``GROUP_READS``).  A ``tolerance`` that
    cannot gate a residual (see ``connection._valid_tolerance``) raises
    ``BadParams``.
    """
    _valid_tolerance(tolerance, "tolerance")
    with _evaluation_context():
        formula, _, direct = _run_both(chart, metric_field, spec, pts, corrupt)
        diff = formula - direct
        residual = norm_residual(formula, direct)
        ok = residual <= tolerance

        _, clean_groups, clean_direct = _run_both(chart, metric_field, spec, pts, None)

        candidates: dict[str, tuple[str, np.ndarray]] = {}
        for name in GROUPS:
            candidates[name] = ("formula_group", clean_groups[name])
        for name in H_TERMS:
            bumped = curvature_direct(
                chart, metric_field, spec, pts, corrupt=Corruption(name)
            )
            candidates[name] = ("h_term", bumped - clean_direct)

        d_flat = diff.ravel()
        d_norm2 = float(d_flat @ d_flat)
        table = []
        for name, (kind, cand) in candidates.items():
            c_flat = cand.ravel()
            c_norm2 = float(c_flat @ c_flat)
            contribution = max_abs(cand)
            if c_norm2 == 0.0 or d_norm2 == 0.0:
                coeff, explained = 0.0, 0.0
            else:
                coeff = float(d_flat @ c_flat) / c_norm2
                rem = d_flat - coeff * c_flat
                explained = 1.0 - float(rem @ rem) / d_norm2
            if contribution != 0.0:
                table.append(
                    {
                        "term": name,
                        "kind": kind,
                        "contribution": contribution,
                        "alignment": coeff,
                        "explained_fraction": explained,
                    }
                )
        table.sort(key=lambda row: (-row["explained_fraction"], row["term"]))

        report = {
            "residual": residual,
            "tolerance": tolerance,
            "pass": bool(ok),
            "term_table": table,
            "binding_ablation": [],
            "minimal_failing_bindings": [],
        }
        # a non-finite residual has no size to shrink: there is nothing to search
        if not ok and np.isfinite(residual):
            for name in BINDING_NAMES:
                res = _global_residual(
                    chart, metric_field, spec.with_zeroed(name), pts, corrupt
                )
                report["binding_ablation"].append(
                    {"zeroed": name, "residual": res, "pass": bool(res <= tolerance)}
                )
            # Greedy minimal failing configuration: zero bindings one at a time,
            # keep the zero whenever the comparison still fails.
            current = spec
            for name in BINDING_NAMES:
                trial = current.with_zeroed(name)
                if _global_residual(chart, metric_field, trial, pts, corrupt) > tolerance:
                    current = trial
            report["minimal_failing_bindings"] = [
                name
                for name in BINDING_NAMES
                if not getattr(current, name).is_zero
            ]
    return report
