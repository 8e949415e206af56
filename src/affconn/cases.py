"""Named particular cases of the unified connection.

Each preset pins (f1, f2), the shape of phi (full, self-adjoint part,
skew-adjoint part, identity, Ricci operator, or absent) and which one-forms
are bound, and carries the case's displayed reduced connection law and
metricity law as independently coded right-hand sides.  ``case_rows``
checks them on an evaluated frame; ``verify_case`` and ``affconn verify``
run them after the general laws, ``PointFrame.law_rows``.

A preset states only its choices: id, name, f1, f2, phi mode, the sources
of u1 and u2, a prose deviation and a parent.  What they imply is derived:
the bindings it requires, whether it uses u, whether it is torsion-free,
whether it needs a curved metric, and the rows ``case_rows`` adds to the
general laws (``checks``).  The reduced laws
(``_reduced_gamma``, ``_stated_metricity`` and case 17's curvature law) are
not derived: they are the independent side of each check, so building them
from the general construction would check that construction against itself.

Cases stated with a free nonzero coefficient are pinned to a representative
value so every preset is fully executable; the value is part of the preset.
Two presets carry a ``prose_deviation``: their traditional recurrence
statement reads f1*u1 (x) g, while the construction's metricity law forces
the coefficient 2*f1.  Their stated-law residual is reported, not asserted.

Aliased bindings (u1 = u, u2 = u, u1 = u2 = omega) are one field object in
all slots, so the aliased jets are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .connection import (
    ConnectionSpec,
    _valid_tolerance,
    evaluate_spec,
    max_abs,
    norm_residual,
    split_phi,
)
from .curvature import curvatures, exterior_2du
from .errors import (
    BadParams,
    CaseUnknown,
    DimensionMismatch,
    ExtraBinding,
    JetOrderUnsupported,
    MissingBinding,
)
from .fields import (
    IdentityEndoField,
    Jet,
    Manifold,
    PolynomialEndoField,
    PolynomialOneFormField,
    PolynomialScalarField,
    _evaluation_context,
    _memo,
)
from .levi_civita import cov_deriv_oneform

__all__ = [
    "SymmetricPartEndoField",
    "SkewPartEndoField",
    "RicciOperatorEndoField",
    "CasePreset",
    "CaseCheckResult",
    "case_ids",
    "get_case",
    "list_cases",
    "build_case",
    "case_rows",
    "verify_case",
]


def _geo_jet(field, geo, part) -> Jet:
    """The jet ``part(split)`` of a g-adjoint part of ``field.base``, from
    the split of its raw jet over ``geo``; memoised per run like any field's
    jet."""

    def compute():
        return part(split_phi(field.base.jet(geo.pts), geo.metric, geo.inv))

    return _memo("jet", (field, geo.metric_field), geo.pts, geo.order, compute)


class _AdjointPartEndoField:
    """A g-adjoint part of a base endomorphism field.

    Evaluates through the geometry bundle because the split needs metric
    jets; the base field supplies the raw endomorphism jets.  Each subclass
    defines its own ``jet_geo``, so each part is its own method object.
    """

    kind = "endo"
    min_metric_order = 1
    _part = ""  # names the part in the constructor's error

    def __init__(self, base):
        if getattr(base, "kind", None) != "endo":
            raise BadParams(f"{self._part} part needs an endomorphism base field")
        self.n = base.n
        self.base = base

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero


class SymmetricPartEndoField(_AdjointPartEndoField):
    """g-self-adjoint part of a base endomorphism field."""

    _part = "symmetric"

    def jet_geo(self, geo) -> Jet:
        return _geo_jet(self, geo, lambda split: Jet(comp=split.phi1, d1=split.phi1_d1))


class SkewPartEndoField(_AdjointPartEndoField):
    """g-skew part of a base endomorphism field."""

    _part = "skew"

    def jet_geo(self, geo) -> Jet:
        return _geo_jet(self, geo, lambda split: Jet(comp=split.phi2, d1=split.phi2_d1))


class RicciOperatorEndoField:
    """Q = g^-1 S as an endomorphism field; vanishes on flat metrics.

    Its 1-jet needs metric jets of order 3, hence ``min_metric_order``.
    """

    kind = "endo"
    min_metric_order = 3
    is_zero = False

    def __init__(self, n: int):
        self.n = n

    def jet_geo(self, geo) -> Jet:
        def compute():
            ricci = geo.ricci
            if ricci.q_d1 is None:
                raise JetOrderUnsupported(
                    "Ricci-operator jets need metric order 3, geometry has "
                    f"order {geo.order}"
                )
            return Jet(comp=ricci.q, d1=ricci.q_d1)

        return _memo("jet", (self, geo.metric_field), geo.pts, geo.order, compute)


class _PhiMode(NamedTuple):
    description: str  # as ``affconn cases`` lists it
    binds_phi: bool  # built from the caller's ``phi`` binding
    build: Callable  # (bindings, n) -> the spec's phi field


_PHI_MODES = {
    "full": _PhiMode("bound endomorphism", True, lambda b, n: b["phi"]),
    "sym": _PhiMode(
        "self-adjoint part of the bound endomorphism",
        True,
        lambda b, n: SymmetricPartEndoField(b["phi"]),
    ),
    "skew": _PhiMode(
        "skew-adjoint part of the bound endomorphism",
        True,
        lambda b, n: SkewPartEndoField(b["phi"]),
    ),
    "identity": _PhiMode("identity", False, lambda b, n: IdentityEndoField(n)),
    "ricci": _PhiMode("Ricci operator", False, lambda b, n: RicciOperatorEndoField(n)),
    "none": _PhiMode("absent", False, lambda b, n: PolynomialEndoField.zero(n)),
}


@dataclass(frozen=True)
class CasePreset:
    """One named reduction: fixed coefficients, binding slots, and laws.

    Only the preset's choices are stored; its bindings, symmetry and the
    checks it runs are derived from them.
    """

    id: str
    name: str
    f1: float
    f2: float
    phi_mode: str  # a key of _PHI_MODES
    u1_src: str | None = None  # None (unbound) | "u1" | "u" | "omega"
    u2_src: str | None = None  # None (unbound) | "u2" | "u" | "omega"
    prose_deviation: str | None = None
    parent: str | None = None

    @property
    def uses_u(self) -> bool:
        return self.phi_mode != "none"

    @property
    def symmetric(self) -> bool:
        """Torsion vanishes identically: no u, hence no u (x) phi term."""
        return not self.uses_u

    @property
    def requires_curved(self) -> bool:
        return self.phi_mode == "ricci"

    @property
    def required(self) -> tuple[str, ...]:
        """Binding names the caller must supply, in the order u, phi, u1, u2,
        omega."""
        wanted = {
            "u": self.uses_u,
            "phi": _PHI_MODES[self.phi_mode].binds_phi,
            "u1": self.u1_src == "u1",
            "u2": self.u2_src == "u2",
            "omega": "omega" in (self.u1_src, self.u2_src),
        }
        return tuple(name for name, on in wanted.items() if on)

    @property
    def alias_pairs(self) -> tuple[tuple[str, str], ...]:
        pairs = []
        if self.u1_src == "u":
            pairs.append(("u1", "u"))
        if self.u2_src == "u":
            pairs.append(("u2", "u"))
        if self.u1_src == "omega" and self.u2_src == "omega":
            pairs.append(("u2", "u1"))
        return tuple(pairs)

    @property
    def checks(self) -> tuple[str, ...]:
        """The rows ``case_rows`` adds to ``torsion_law`` and
        ``metricity_law``; a stated law the prose deviates from is reported,
        not gated."""
        stated = "metricity_stated"
        if self.prose_deviation is not None:
            stated += " (reported, prose deviates)"
        out = ("reduced_connection", stated)
        if self.symmetric:
            out += ("torsion_zero",)
        if self.id == "17":  # and its reduced curvature law
            out += (
                "curvature_reduced_vs_formula",
                "curvature_reduced_vs_direct",
                "s_skew_identity",
            )
        return out


_COEFF_DEVIATION = (
    "recurrence stated with coefficient f1; the metricity law of the "
    "construction forces 2*f1"
)

_PRESETS = (
    CasePreset(
        id="1",
        name="quarter-symmetric metric connection",
        f1=0.0,
        f2=0.0,
        phi_mode="full",
    ),
    CasePreset(
        id="2",
        name="Ricci quarter-symmetric metric connection",
        f1=0.0,
        f2=0.0,
        phi_mode="ricci",
    ),
    CasePreset(
        id="2a",
        name="quarter-symmetric metric connection, self-adjoint phi",
        f1=0.0,
        f2=0.0,
        phi_mode="sym",
        parent="2",
    ),
    CasePreset(
        id="3",
        name="quarter-symmetric metric connection, skew-adjoint phi",
        f1=0.0,
        f2=0.0,
        phi_mode="skew",
    ),
    CasePreset(
        id="4",
        name="quarter-symmetric recurrent-metric connection",
        f1=2.0,
        f2=0.0,
        phi_mode="sym",
        u1_src="u1",
    ),
    CasePreset(
        id="5",
        name="special quarter-symmetric recurrent-metric connection",
        f1=1.0,
        f2=0.0,
        phi_mode="sym",
        u1_src="u",
    ),
    CasePreset(
        id="6",
        name="quarter-symmetric recurrent-metric connection, skew-adjoint phi",
        f1=2.0,
        f2=0.0,
        phi_mode="skew",
        u1_src="u1",
        prose_deviation=_COEFF_DEVIATION,
    ),
    CasePreset(
        id="7",
        name=(
            "special quarter-symmetric recurrent-metric connection, "
            "skew-adjoint phi"
        ),
        f1=1.0,
        f2=0.0,
        phi_mode="skew",
        u1_src="u",
    ),
    CasePreset(
        id="8",
        name="quarter-symmetric non-metric connection",
        f1=0.0,
        f2=2.0,
        phi_mode="sym",
        u2_src="u2",
    ),
    CasePreset(
        id="9",
        name="quarter-symmetric non-metric connection, u2 = u",
        f1=0.0,
        f2=2.0,
        phi_mode="sym",
        u2_src="u",
    ),
    CasePreset(
        id="10",
        name="quarter-symmetric non-metric connection, skew-adjoint phi",
        f1=0.0,
        f2=2.0,
        phi_mode="skew",
        u2_src="u2",
    ),
    CasePreset(
        id="11",
        name="quarter-symmetric non-metric connection, skew-adjoint phi, u2 = u",
        f1=0.0,
        f2=2.0,
        phi_mode="skew",
        u2_src="u",
    ),
    CasePreset(
        id="12",
        name="semi-symmetric metric connection",
        f1=0.0,
        f2=0.0,
        phi_mode="identity",
    ),
    CasePreset(
        id="13",
        name="semi-symmetric recurrent-metric connection",
        f1=2.0,
        f2=0.0,
        phi_mode="identity",
        u1_src="u1",
        prose_deviation=_COEFF_DEVIATION,
    ),
    CasePreset(
        id="13a",
        name="semi-symmetric recurrent-metric connection, f1 = 1",
        f1=1.0,
        f2=0.0,
        phi_mode="identity",
        u1_src="u1",
        parent="13",
    ),
    CasePreset(
        id="13b",
        name="semi-symmetric recurrent-metric connection, f1 = 1, u1 = u",
        f1=1.0,
        f2=0.0,
        phi_mode="identity",
        u1_src="u",
        parent="13",
    ),
    CasePreset(
        id="14",
        name="semi-symmetric non-metric connection",
        f1=0.0,
        f2=2.0,
        phi_mode="identity",
        u2_src="u2",
    ),
    CasePreset(
        id="14a",
        name="semi-symmetric non-metric connection, f2 = -1",
        f1=0.0,
        f2=-1.0,
        phi_mode="identity",
        u2_src="u2",
        parent="14",
    ),
    CasePreset(
        id="14b",
        name="semi-symmetric non-metric connection, f2 = -1, u2 = u",
        f1=0.0,
        f2=-1.0,
        phi_mode="identity",
        u2_src="u",
        parent="14",
    ),
    CasePreset(
        id="15",
        name="symmetric non-metric connection",
        f1=2.0,
        f2=3.0,
        phi_mode="none",
        u1_src="u1",
        u2_src="u2",
    ),
    CasePreset(
        id="16",
        name="Weyl connection",
        f1=0.5,
        f2=0.0,
        phi_mode="none",
        u1_src="omega",
    ),
    CasePreset(
        id="17",
        name="projectively related symmetric non-metric connection",
        f1=-1.0,
        f2=-1.0,
        phi_mode="none",
        u1_src="omega",
        u2_src="omega",
    ),
)

_REGISTRY = {p.id: p for p in _PRESETS}


def case_ids() -> list[str]:
    return [p.id for p in _PRESETS]


def get_case(case_id) -> CasePreset:
    key = str(case_id)
    preset = _REGISTRY.get(key)
    if preset is None:
        raise CaseUnknown(
            f"no case preset {key!r}; known ids are {', '.join(case_ids())}"
        )
    return preset


def list_cases() -> list[CasePreset]:
    return list(_PRESETS)


def build_case(case_id, bindings: dict, manifold: Manifold) -> ConnectionSpec:
    """Assemble the ConnectionSpec for one preset from its bound fields."""
    preset = get_case(case_id)
    n = manifold.chart.n
    supplied = set(bindings)
    needed = set(preset.required)
    missing = sorted(needed - supplied)
    if missing:
        raise MissingBinding(
            f"case {preset.id} needs bindings {missing} (requires {sorted(needed)})"
        )
    extra = sorted(supplied - needed)
    if extra:
        raise ExtraBinding(
            f"case {preset.id} got unexpected bindings {extra} "
            f"(requires {sorted(needed)})"
        )
    for name, f in bindings.items():
        want = "endo" if name == "phi" else "oneform"
        if getattr(f, "kind", None) != want:
            raise BadParams(f"binding {name!r} must be a {want} field")
        if getattr(f, "n", None) != n:
            raise DimensionMismatch(
                f"binding {name!r} has dimension {getattr(f, 'n', None)}, "
                f"manifold has {n}"
            )

    zero_form = PolynomialOneFormField.zero(n)
    u = bindings["u"] if preset.uses_u else zero_form

    def resolve(src):
        if src is None:
            return zero_form
        if src == "u":
            return u
        return bindings[src]

    return ConnectionSpec(
        n=n,
        f1=PolynomialScalarField.constant(n, preset.f1),
        f2=PolynomialScalarField.constant(n, preset.f2),
        u=u,
        u1=resolve(preset.u1_src),
        u2=resolve(preset.u2_src),
        phi=_PHI_MODES[preset.phi_mode].build(bindings, n),
    )


def _reduced_gamma(preset: CasePreset, frame) -> np.ndarray:
    """The case's displayed right-hand side, assembled from raw jets.

    Deliberately not routed through the general deformation-tensor code:
    matching that machinery is the point of the check.  The three displays
    that rely on term cancellations (13b, 14b, 17) are coded as displayed.
    """
    geo = frame.geo
    g, ginv, gamma = geo.g, geo.ginv, geo.gamma
    eye = np.eye(geo.n)
    u = frame.u.comp

    def sharp_of(comp):
        return np.einsum("pkm,pm->pk", ginv, comp)

    if preset.id == "13b":
        return gamma - np.einsum("pi,kj->pkij", u, eye, order="F")
    if preset.id == "14b":
        return gamma + np.einsum("pj,ki->pkij", u, eye, order="F")
    if preset.id == "17":
        w = frame.u1.comp
        return (
            gamma
            + np.einsum("pi,kj->pkij", w, eye, order="F")
            + np.einsum("pj,ki->pkij", w, eye, order="F")
        )

    out = gamma
    phi = frame.phi.comp
    if preset.phi_mode == "full":
        raw = np.einsum("pmi,pmj->pij", phi, g)
        p1 = 0.5 * (raw + raw.swapaxes(1, 2))
        p2 = 0.5 * (raw - raw.swapaxes(1, 2))
        phi1 = np.einsum("pim,pmk->pki", p1, ginv)
        phi2 = np.einsum("pim,pmk->pki", p2, ginv)
        out = (
            out
            + np.einsum("pj,pki->pkij", u, phi1)
            - np.einsum("pi,pkj->pkij", u, phi2)
            - np.einsum("pij,pk->pkij", p1, sharp_of(u))
        )
    elif preset.phi_mode == "sym":
        big_phi = np.einsum("pmi,pmj->pij", phi, g)
        out = (
            out
            + np.einsum("pj,pki->pkij", u, phi)
            - np.einsum("pij,pk->pkij", big_phi, sharp_of(u))
        )
    elif preset.phi_mode == "ricci":
        out = (
            out
            + np.einsum("pj,pki->pkij", u, phi)
            - np.einsum("pij,pk->pkij", geo.ricci.s, sharp_of(u))
        )
    elif preset.phi_mode == "skew":
        out = out - np.einsum("pi,pkj->pkij", u, phi)
    elif preset.phi_mode == "identity":
        out = (
            out
            + np.einsum("pj,ki->pkij", u, eye, order="F")
            - np.einsum("pij,pk->pkij", g, sharp_of(u))
        )

    if preset.f1 != 0.0:
        w = frame.u1.comp
        rec = (
            np.einsum("pi,kj->pkij", w, eye, order="F")
            + np.einsum("pj,ki->pkij", w, eye, order="F")
            - np.einsum("pij,pk->pkij", g, sharp_of(w))
        )
        out = out - preset.f1 * rec
    if preset.f2 != 0.0:
        v = frame.u2.comp
        out = out - preset.f2 * np.einsum("pij,pk->pkij", g, sharp_of(v))
    return out


def _stated_metricity(preset: CasePreset, frame) -> np.ndarray:
    """The case's displayed (nabla~ g) law, as a [p, i, j, k] array."""
    g = frame.geo.g
    u, u1, u2 = frame.u.comp, frame.u1.comp, frame.u2.comp

    def rec_form(c, eta):
        return c * np.einsum("pi,pjk->pijk", eta, g)

    def sym_form(c, eta):
        return c * (
            np.einsum("pj,pik->pijk", eta, g) + np.einsum("pk,pij->pijk", eta, g)
        )

    pid = preset.id
    if pid in ("1", "2", "2a", "3", "12"):
        return np.zeros_like(frame.geo.metric.d1)
    if pid == "4":
        return rec_form(2.0 * preset.f1, u1)
    if pid in ("5", "7", "13b"):
        return rec_form(2.0, u)
    if pid in ("6", "13"):
        return rec_form(preset.f1, u1)  # stated; the construction forces 2*f1
    if pid in ("8", "10", "14"):
        return sym_form(preset.f2, u2)
    if pid in ("9", "11"):
        return sym_form(preset.f2, u)
    if pid == "13a":
        return rec_form(2.0, u1)
    if pid == "14a":
        return sym_form(-1.0, u2)
    if pid == "14b":
        return sym_form(-1.0, u)
    if pid == "15":
        return rec_form(2.0 * preset.f1, u1) + sym_form(preset.f2, u2)
    if pid == "16":
        return rec_form(1.0, u1)
    if pid == "17":
        return rec_form(-2.0, u1) + sym_form(-1.0, u1)
    raise CaseUnknown(f"no stated metricity law for case {pid!r}")


def case_rows(preset: CasePreset, frame, run) -> list:
    """The preset's own laws on ``frame`` as (check, residual, tolerance key)
    rows, as ``preset.checks`` lists them; a key of None means reported, not
    gated.  ``run()`` gives ``curvatures(frame)``, R~ by the formula and by
    the direct oracle: only case 17's reduced curvature law calls it."""
    stated = "metricity" if preset.prose_deviation is None else None
    rows = [
        ("reduced_connection",
         norm_residual(_reduced_gamma(preset, frame), frame.gamma_tilde), "torsion"),
        ("metricity_stated",
         norm_residual(frame.nabla_g, _stated_metricity(preset, frame)), stated),
    ]
    if preset.symmetric:
        t = frame.torsion
        rows.append(("torsion_zero", norm_residual(t, np.zeros_like(t)), "torsion"))
    if preset.id == "17":
        omega = frame.u1
        s = cov_deriv_oneform(omega.comp, omega.d1, frame.geo.gamma) - np.einsum(
            "pi,pj->pij", omega.comp, omega.comp
        )
        eye = np.eye(frame.geo.n)
        s_skew = s - s.swapaxes(1, 2)
        reduced = (
            frame.geo.riemann.r
            + np.einsum("pik,lj->plijk", s, eye, order="F")
            - np.einsum("pjk,li->plijk", s, eye, order="F")
            + np.einsum("pij,lk->plijk", s_skew, eye, order="F")
        )
        r_formula, _, r_direct = run()
        rows += [
            ("curvature_reduced_vs_formula", norm_residual(reduced, r_formula), "torsion"),
            ("curvature_reduced_vs_direct", norm_residual(reduced, r_direct), "curvature"),
            ("s_skew_identity", norm_residual(s_skew, exterior_2du(omega)), "torsion"),
        ]
    return rows


@dataclass
class CaseCheckResult:
    case_id: str
    name: str
    residuals: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    reported: dict[str, float] = field(default_factory=dict)
    aliases: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    passed: bool = False

    def as_dict(self) -> dict:
        out = asdict(self)
        return {"case": out.pop("case_id"), "pass": out.pop("passed"), **out}


def verify_case(
    case_id,
    bindings: dict,
    manifold: Manifold,
    pts,
    tolerance: float = 1e-10,
    curvature_tolerance: float = 1e-8,
) -> CaseCheckResult:
    """Check the preset's displayed laws against the general machinery.

    Runs the general torsion and metricity laws, then ``case_rows``; the
    reduced curvature law against the oracle gates at
    ``curvature_tolerance``, every other row at ``tolerance``.  Aliased
    bindings must also be bit-identical.
    """
    _valid_tolerance(tolerance, "tolerance")
    _valid_tolerance(curvature_tolerance, "curvature_tolerance")
    preset = get_case(case_id)
    spec = build_case(case_id, bindings, manifold)
    order = 2 if preset.id == "17" else 1
    result = CaseCheckResult(preset.id, preset.name)
    keyed = {"curvature": curvature_tolerance}  # every other key gates at tolerance
    with _evaluation_context():
        frame = evaluate_spec(manifold.chart, manifold.metric, spec, pts, order=order)
        rows = frame.law_rows() + case_rows(preset, frame, lambda: curvatures(frame))
        for name, res, key in rows:
            if key is None:
                result.reported[name] = res
            else:
                result.residuals[name] = res
                result.tolerances[name] = keyed.get(key, tolerance)
        if preset.prose_deviation is not None:
            stated = result.reported["metricity_stated"]
            result.notes.append(f"case {preset.id}: {preset.prose_deviation} "
                                f"(stated-law residual {stated:.3e})")
        jet = {"u": frame.u, "u1": frame.u1, "u2": frame.u2}
        result.aliases = {f"{a}_is_{b}": jet[a] is jet[b] for a, b in preset.alias_pairs}
        if preset.requires_curved and max_abs(frame.phi.comp) == 0.0:
            result.notes.append(
                f"case {preset.id}: the Ricci operator vanishes on this metric, "
                "so the preset degenerates to the Levi-Civita connection"
            )
    result.passed = all(
        res <= result.tolerances[name] for name, res in result.residuals.items()
    ) and all(result.aliases.values())
    return result
