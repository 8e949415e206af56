"""Levi-Civita data from metric jets.

Index conventions, fixed once for the whole package:

- ``gamma[p, k, i, j] = Gamma^k_ij`` with ``nabla_{d_i} d_j = Gamma^k_ij d_k``.
- ``r[p, l, i, j, k] = R^l_ijk``, the ``d_l`` component of ``R(d_i, d_j) d_k``,
  i.e. ``d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
  - Gamma^l_jm Gamma^m_ik``.
- Ricci uses the first-slot contraction ``S_jk = R^m_mjk``; on the unit round
  sphere this gives S = g and Ricci operator Q = identity.
- Covariant derivative outputs put the derivative index first:
  ``(nabla_i eta)_j``, ``(nabla_i xi)^k``, ``(nabla_i phi)^k_j``.

All functions are batched over a leading point axis and consume the exact
jets produced by :mod:`affconn.fields`, stored points-last in memory.
"""

from __future__ import annotations

from functools import cached_property
from dataclasses import dataclass

import numpy as np

from .fields import Chart, Jet, _blocks, _read_only, _spd_inverse, _whole, batch_zeros

__all__ = [
    "RicciData",
    "inverse_metric",
    "christoffel",
    "riemann",
    "riemann_d1",
    "ricci_data",
    "cov_deriv_oneform",
    "cov_deriv_vector",
    "cov_deriv_endo",
    "cov_deriv",
    "PointGeometry",
]


@dataclass(frozen=True)
class RicciData:
    s: np.ndarray  # (m, n, n), S_jk = R^m_mjk
    q: np.ndarray  # (m, n, n), Q^i_j = g^im S_mj
    q_d1: np.ndarray | None = None  # (m, n, n, n), q_d1[p, a, i, j] = d_a Q^i_j


def inverse_metric(mj: Jet) -> Jet:
    """Pointwise inverse via d(g^-1) = -g^-1 (dg) g^-1, each product of
    three as two two-operand einsums.  g^-1 itself comes from
    ``fields._spd_inverse``, stored points-last, and every einsum after it
    keeps that layout.  ``mj`` is a metric field's jet, so its values passed
    ``_spd_check``, the inverse's contract, when it was made.

    d1 is built at every metric order.  d2 is built only when the metric
    jet has d3: its one reader is the second derivative of Christoffel,
    which needs d3 too, so at order 2 it would never be read."""
    ginv = _spd_inverse(mj.comp)
    ginv_dg = np.einsum("pim,pamj->paij", ginv, mj.d1)  # g^-1 (d_a g)
    d1 = -np.einsum("paim,pmj->paij", ginv_dg, ginv)
    d2 = None
    if mj.d3 is not None:
        # d_a d_b g^-1 = -(d_a g^-1)(d_b g)g^-1 - g^-1(d_a d_b g)g^-1
        #               - g^-1(d_b g)(d_a g^-1)
        dg_ginv = np.einsum("pbim,pmj->pbij", mj.d1, ginv)
        ginv_ddg = np.einsum("pim,pabmj->pabij", ginv, mj.d2)
        d2 = (
            -np.einsum("paim,pbmj->pabij", d1, dg_ginv)
            - np.einsum("pabim,pmj->pabij", ginv_ddg, ginv)
            - np.einsum("pbim,pamj->pabij", ginv_dg, d1)
        )
    return Jet(comp=ginv, d1=d1, d2=d2)


def _lowered(d_i: np.ndarray, d_j: np.ndarray, d_m: np.ndarray) -> np.ndarray:
    """(d_i + d_j - d_m) / 2 in one new buffer, summed in that order."""
    low = d_i + d_j
    low -= d_m
    low *= 0.5
    return low


def christoffel(mj: Jet, inv: Jet | None = None, gamma: np.ndarray | None = None) -> Jet:
    """Levi-Civita connection coefficients with available derivatives.

    Built through the lowered symbol C_mij = (d_i g_mj + d_j g_mi - d_m g_ij)/2,
    which is exactly symmetric in (i, j) because metric jets are.  ``gamma``
    is Gamma itself on the same points, if the caller has it (from this
    function, so the same bits); only its derivatives are then computed.
    """
    if inv is None:
        inv = inverse_metric(mj)
    low = _lowered(
        np.einsum("pimj->pmij", mj.d1), np.einsum("pjmi->pmij", mj.d1), mj.d1
    )
    if gamma is None:
        gamma = np.einsum("pkm,pmij->pkij", inv.comp, low)
    d1 = d2 = None
    if mj.d2 is not None:
        low_d1 = _lowered(
            np.einsum("plimj->plmij", mj.d2), np.einsum("pljmi->plmij", mj.d2), mj.d2
        )
        d1 = np.einsum("plkm,pmij->plkij", inv.d1, low)
        d1 += np.einsum("pkm,plmij->plkij", inv.comp, low_d1)
        if mj.d3 is not None:
            low_d2 = _lowered(
                np.einsum("plqimj->plqmij", mj.d3),
                np.einsum("plqjmi->plqmij", mj.d3),
                mj.d3,
            )
            d2 = np.einsum("plqkm,pmij->plqkij", inv.d2, low)
            d2 += np.einsum("plkm,pqmij->plqkij", inv.d1, low_d1)
            d2 += np.einsum("pqkm,plmij->plqkij", inv.d1, low_d1)
            d2 += np.einsum("pkm,plqmij->plqkij", inv.comp, low_d2)
    return Jet(comp=gamma, d1=d1, d2=d2)


def _riemann_half(gamma: np.ndarray, gamma_d1: np.ndarray) -> np.ndarray:
    # half[p, l, i, j, k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
    return np.einsum("piljk->plijk", gamma_d1) + np.einsum(
        "plim,pmjk->plijk", gamma, gamma
    )


def riemann(cj: Jet) -> np.ndarray:
    """Curvature of the connection, r[p, l, i, j, k]; antisymmetric in
    (i, j) exactly."""
    cj.require_order(1, "riemann")
    half = _riemann_half(cj.comp, cj.d1)
    return half - half.swapaxes(2, 3)


def riemann_d1(cj: Jet) -> np.ndarray:
    """d_a R^l_ijk, layout (m, n, n, n, n, n) = [p, a, l, i, j, k]."""
    cj.require_order(2, "riemann_d1")
    half = (
        np.einsum("pailjk->palijk", cj.d2)
        + np.einsum("palim,pmjk->palijk", cj.d1, cj.comp)
        + np.einsum("plim,pamjk->palijk", cj.comp, cj.d1)
    )
    return half - half.swapaxes(3, 4)


def ricci_data(cj: Jet, inv: Jet) -> RicciData:
    """S and Q from the Christoffel jet ``cj`` and the inverse metric's jet
    on the same points; Q's 1-jet too exactly when ``cj`` has d2."""
    s = np.einsum("pmmjk->pjk", riemann(cj))
    q = np.einsum("pim,pmj->pij", inv.comp, s)
    q_d1 = None
    if cj.d2 is not None:
        s_d1 = np.einsum("pammjk->pajk", riemann_d1(cj))
        q_d1 = np.einsum("paim,pmj->paij", inv.d1, s) + np.einsum(
            "pim,pamj->paij", inv.comp, s_d1
        )
    return RicciData(s=s, q=q, q_d1=q_d1)


def cov_deriv_oneform(comp, d1, gamma) -> np.ndarray:
    """(nabla_i eta)_j = d_i eta_j - Gamma^m_ij eta_m; output [p, i, j]."""
    return d1 - np.einsum("pmij,pm->pij", gamma, comp)


def cov_deriv_vector(comp, d1, gamma) -> np.ndarray:
    """(nabla_i xi)^k = d_i xi^k + Gamma^k_im xi^m; output [p, i, k]."""
    return d1 + np.einsum("pkim,pm->pik", gamma, comp)


def cov_deriv_endo(comp, d1, gamma) -> np.ndarray:
    """(nabla_i phi)^k_j; output [p, i, k, j], matching the jet layout of d1."""
    return (
        d1
        + np.einsum("pkim,pmj->pikj", gamma, comp)
        - np.einsum("pmij,pkm->pikj", gamma, comp)
    )


def cov_deriv(kind: str, comp, d1, cj: Jet) -> np.ndarray:
    fns = {
        "oneform": cov_deriv_oneform,
        "vector": cov_deriv_vector,
        "endo": cov_deriv_endo,
    }
    if kind not in fns:
        raise ValueError(f"cov_deriv kind must be one of {sorted(fns)}, got {kind!r}")
    return fns[kind](comp, d1, cj.comp)


class PointGeometry:
    """Metric jets plus lazily computed Levi-Civita data for one point batch.

    ``order`` is the metric jet order: 1 suffices for Gamma, 2 adds curvature
    and Ricci, 3 adds their first derivatives (needed by the Ricci-operator
    endomorphism field's jets).  The inverse metric carries one derivative
    level less than the metric, but at least d1: ``inv.d2`` is None below
    order 3.  The data is read-only once computed, since one geometry may
    serve a whole run (see ``fields._memo``).

    ``gamma``, the symbols alone, is what the connection and the curvature
    formula read.  ``christoffel_rows`` is Gamma's jet on one point block,
    from that block's rows of the metric and inverse jets and ``gamma``;
    ``riemann_rows`` is Levi-Civita R of it, which the formula's ``riemann``
    group and case 17 read.  ``ricci``, read only by a geometry-derived phi,
    runs the ``fields._blocks`` loop over the same jet at the geometry's
    order.  So the geometry holds no whole-batch derivative of Gamma and no
    R; of the curvature it keeps only S, Q and Q's 1-jet.
    """

    def __init__(self, chart: Chart, metric, pts, order: int = 1):
        self.chart = chart
        self.metric_field = metric
        self.pts = chart.require_inside(pts)
        self.n = chart.n
        self.m = self.pts.shape[0]
        self.order = order
        self.metric = metric.jet(self.pts, order=order)

    @cached_property
    def inv(self) -> Jet:
        return _read_only(inverse_metric(self.metric))

    def christoffel_rows(self, at, order: int) -> Jet:
        """Gamma's jet to d(order - 1) on the rows ``at`` takes (see
        ``fields._blocks``), from those rows of the metric's ``order``-jet,
        the inverse's and ``gamma``."""
        return christoffel(
            Jet(*map(at, self.metric.levels[: order + 1])),
            Jet(*map(at, self.inv.levels[:order])),
            at(self.gamma),
        )

    def riemann_rows(self, at=_whole) -> np.ndarray:
        """Levi-Civita R on the rows ``at`` takes, r[p, l, i, j, k]."""
        return riemann(self.christoffel_rows(at, 2))

    @cached_property
    def ricci(self) -> RicciData:
        n = self.n
        out = {"s": batch_zeros(self.m, (n, n)), "q": batch_zeros(self.m, (n, n))}
        if self.order >= 3:
            out["q_d1"] = batch_zeros(self.m, (n, n, n))
        for at in _blocks(self.m, n**4):
            rows = ricci_data(
                self.christoffel_rows(at, self.order), Jet(*map(at, self.inv.levels)))
            for name, buf in out.items():
                at(buf)[...] = getattr(rows, name)
        return _read_only(RicciData(**out))

    @property
    def g(self) -> np.ndarray:
        return self.metric.comp

    @property
    def ginv(self) -> np.ndarray:
        return self.inv.comp

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma^k_ij from the metric's value and d1 only, so reading it
        builds no derivative of Gamma; ``christoffel_rows`` reuses it."""
        return _read_only(christoffel(Jet(*self.metric.levels[:2]), self.inv).comp)
