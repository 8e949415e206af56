"""Named particular cases of the unified connection.

Each preset pins (f1, f2), the shape of phi (full, self-adjoint part,
skew-adjoint part, identity, Ricci operator, or absent) and which one-forms
are bound, and carries the case's displayed reduced connection law and
metricity law as independently coded right-hand sides.  ``verify_case``
evaluates both the general machinery and the reduced laws on a point batch
and reports residuals.

Cases stated with a free nonzero coefficient are pinned to a representative
value so every preset is fully executable; the value is part of the preset.
Two presets carry a ``prose_deviation``: their traditional recurrence
statement reads f1*u1 (x) g, while the construction's metricity law forces
the coefficient 2*f1.  Their stated-law residual is reported, not asserted.

Aliased bindings (u1 = u, u2 = u, u1 = u2 = omega) are one field object in
all slots, so the aliased jets are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import (
    ConnectionSpec,
    evaluate_spec,
    max_abs,
    nonmetricity_direct,
    nonmetricity_predicted,
    norm_residual,
    split_phi,
    torsion_direct,
    torsion_predicted,
)
from .curvature import curvature_direct, curvature_formula, exterior_2du
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
    "verify_case",
]


def _geo_jet(field, geo, part) -> Jet:
    """The jet ``part(split)`` of a g-adjoint part of ``field.base``, from
    the split of its raw jet over ``geo``; memoised per run like any field's
    jet."""

    def compute():
        return part(split_phi(field.base.jet(geo.pts), geo.metric, geo.inv))

    return _memo("jet", (field, geo.metric_field), geo.pts, geo.order, compute)


class SymmetricPartEndoField:
    """g-self-adjoint part of a base endomorphism field.

    Evaluates through the geometry bundle because the split needs metric
    jets; the base field supplies the raw endomorphism jets.
    """

    kind = "endo"
    min_metric_order = 1

    def __init__(self, base):
        if getattr(base, "kind", None) != "endo":
            raise BadParams("symmetric part needs an endomorphism base field")
        self.n = base.n
        self.base = base

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero

    def jet_geo(self, geo) -> Jet:
        return _geo_jet(self, geo, lambda split: Jet(comp=split.phi1, d1=split.phi1_d1))


class SkewPartEndoField:
    """g-skew part of a base endomorphism field."""

    kind = "endo"
    min_metric_order = 1

    def __init__(self, base):
        if getattr(base, "kind", None) != "endo":
            raise BadParams("skew part needs an endomorphism base field")
        self.n = base.n
        self.base = base

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero

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


@dataclass(frozen=True)
class CasePreset:
    """One named reduction: fixed coefficients, binding slots, and laws."""

    id: str
    name: str
    f1: float
    f2: float
    required: tuple[str, ...]  # binding names the caller must supply
    phi_mode: str  # full | sym | skew | identity | ricci | none
    uses_u: bool
    u1_src: str | None  # None | "u1" | "u" | "omega"
    u2_src: str | None  # None | "u2" | "u" | "omega"
    symmetric: bool = False  # torsion vanishes identically
    requires_curved: bool = False
    prose_deviation: str | None = None
    parent: str | None = None

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
        required=("u", "phi"),
        phi_mode="full",
        uses_u=True,
        u1_src=None,
        u2_src=None,
    ),
    CasePreset(
        id="2",
        name="Ricci quarter-symmetric metric connection",
        f1=0.0,
        f2=0.0,
        required=("u",),
        phi_mode="ricci",
        uses_u=True,
        u1_src=None,
        u2_src=None,
        requires_curved=True,
    ),
    CasePreset(
        id="2a",
        name="quarter-symmetric metric connection, self-adjoint phi",
        f1=0.0,
        f2=0.0,
        required=("u", "phi"),
        phi_mode="sym",
        uses_u=True,
        u1_src=None,
        u2_src=None,
        parent="2",
    ),
    CasePreset(
        id="3",
        name="quarter-symmetric metric connection, skew-adjoint phi",
        f1=0.0,
        f2=0.0,
        required=("u", "phi"),
        phi_mode="skew",
        uses_u=True,
        u1_src=None,
        u2_src=None,
    ),
    CasePreset(
        id="4",
        name="quarter-symmetric recurrent-metric connection",
        f1=2.0,
        f2=0.0,
        required=("u", "phi", "u1"),
        phi_mode="sym",
        uses_u=True,
        u1_src="u1",
        u2_src=None,
    ),
    CasePreset(
        id="5",
        name="special quarter-symmetric recurrent-metric connection",
        f1=1.0,
        f2=0.0,
        required=("u", "phi"),
        phi_mode="sym",
        uses_u=True,
        u1_src="u",
        u2_src=None,
    ),
    CasePreset(
        id="6",
        name="quarter-symmetric recurrent-metric connection, skew-adjoint phi",
        f1=2.0,
        f2=0.0,
        required=("u", "phi", "u1"),
        phi_mode="skew",
        uses_u=True,
        u1_src="u1",
        u2_src=None,
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
        required=("u", "phi"),
        phi_mode="skew",
        uses_u=True,
        u1_src="u",
        u2_src=None,
    ),
    CasePreset(
        id="8",
        name="quarter-symmetric non-metric connection",
        f1=0.0,
        f2=2.0,
        required=("u", "phi", "u2"),
        phi_mode="sym",
        uses_u=True,
        u1_src=None,
        u2_src="u2",
    ),
    CasePreset(
        id="9",
        name="quarter-symmetric non-metric connection, u2 = u",
        f1=0.0,
        f2=2.0,
        required=("u", "phi"),
        phi_mode="sym",
        uses_u=True,
        u1_src=None,
        u2_src="u",
    ),
    CasePreset(
        id="10",
        name="quarter-symmetric non-metric connection, skew-adjoint phi",
        f1=0.0,
        f2=2.0,
        required=("u", "phi", "u2"),
        phi_mode="skew",
        uses_u=True,
        u1_src=None,
        u2_src="u2",
    ),
    CasePreset(
        id="11",
        name="quarter-symmetric non-metric connection, skew-adjoint phi, u2 = u",
        f1=0.0,
        f2=2.0,
        required=("u", "phi"),
        phi_mode="skew",
        uses_u=True,
        u1_src=None,
        u2_src="u",
    ),
    CasePreset(
        id="12",
        name="semi-symmetric metric connection",
        f1=0.0,
        f2=0.0,
        required=("u",),
        phi_mode="identity",
        uses_u=True,
        u1_src=None,
        u2_src=None,
    ),
    CasePreset(
        id="13",
        name="semi-symmetric recurrent-metric connection",
        f1=2.0,
        f2=0.0,
        required=("u", "u1"),
        phi_mode="identity",
        uses_u=True,
        u1_src="u1",
        u2_src=None,
        prose_deviation=_COEFF_DEVIATION,
    ),
    CasePreset(
        id="13a",
        name="semi-symmetric recurrent-metric connection, f1 = 1",
        f1=1.0,
        f2=0.0,
        required=("u", "u1"),
        phi_mode="identity",
        uses_u=True,
        u1_src="u1",
        u2_src=None,
        parent="13",
    ),
    CasePreset(
        id="13b",
        name="semi-symmetric recurrent-metric connection, f1 = 1, u1 = u",
        f1=1.0,
        f2=0.0,
        required=("u",),
        phi_mode="identity",
        uses_u=True,
        u1_src="u",
        u2_src=None,
        parent="13",
    ),
    CasePreset(
        id="14",
        name="semi-symmetric non-metric connection",
        f1=0.0,
        f2=2.0,
        required=("u", "u2"),
        phi_mode="identity",
        uses_u=True,
        u1_src=None,
        u2_src="u2",
    ),
    CasePreset(
        id="14a",
        name="semi-symmetric non-metric connection, f2 = -1",
        f1=0.0,
        f2=-1.0,
        required=("u", "u2"),
        phi_mode="identity",
        uses_u=True,
        u1_src=None,
        u2_src="u2",
        parent="14",
    ),
    CasePreset(
        id="14b",
        name="semi-symmetric non-metric connection, f2 = -1, u2 = u",
        f1=0.0,
        f2=-1.0,
        required=("u",),
        phi_mode="identity",
        uses_u=True,
        u1_src=None,
        u2_src="u",
        parent="14",
    ),
    CasePreset(
        id="15",
        name="symmetric non-metric connection",
        f1=2.0,
        f2=3.0,
        required=("u1", "u2"),
        phi_mode="none",
        uses_u=False,
        u1_src="u1",
        u2_src="u2",
        symmetric=True,
    ),
    CasePreset(
        id="16",
        name="Weyl connection",
        f1=0.5,
        f2=0.0,
        required=("omega",),
        phi_mode="none",
        uses_u=False,
        u1_src="omega",
        u2_src=None,
        symmetric=True,
    ),
    CasePreset(
        id="17",
        name="projectively related symmetric non-metric connection",
        f1=-1.0,
        f2=-1.0,
        required=("omega",),
        phi_mode="none",
        uses_u=False,
        u1_src="omega",
        u2_src="omega",
        symmetric=True,
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


_ONE_FORM_SLOTS = ("u", "u1", "u2", "omega")


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

    if preset.phi_mode == "full":
        phi = bindings["phi"]
    elif preset.phi_mode == "sym":
        phi = SymmetricPartEndoField(bindings["phi"])
    elif preset.phi_mode == "skew":
        phi = SkewPartEndoField(bindings["phi"])
    elif preset.phi_mode == "identity":
        phi = IdentityEndoField(n)
    elif preset.phi_mode == "ricci":
        phi = RicciOperatorEndoField(n)
    else:
        phi = PolynomialEndoField.zero(n)

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
        phi=phi,
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


@dataclass
class CaseCheckResult:
    case_id: str
    name: str
    residuals: dict[str, float]
    tolerances: dict[str, float]
    reported: dict[str, float] = field(default_factory=dict)
    aliases: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    passed: bool = False

    def as_dict(self) -> dict:
        return {
            "case": self.case_id,
            "name": self.name,
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "reported": dict(self.reported),
            "aliases": dict(self.aliases),
            "notes": list(self.notes),
            "pass": self.passed,
        }


def verify_case(
    case_id,
    bindings: dict,
    manifold: Manifold,
    pts,
    tolerance: float = 1e-10,
    curvature_tolerance: float = 1e-8,
) -> CaseCheckResult:
    """Check the preset's displayed laws against the general machinery.

    Gating checks: reduced-vs-general connection coefficients, the general
    metricity law, the stated metricity law (unless the preset records a
    prose deviation, in which case it is reported only), the torsion law,
    torsion-free-ness for the symmetric presets, binding-alias bit-identity,
    and for case 17 the reduced curvature law plus the skew identity of s.
    """
    preset = get_case(case_id)
    spec = build_case(case_id, bindings, manifold)
    order = 2 if preset.id == "17" else 1
    with _evaluation_context():
        frame = evaluate_spec(manifold.chart, manifold.metric, spec, pts, order=order)

        residuals: dict[str, float] = {}
        tolerances: dict[str, float] = {}
        reported: dict[str, float] = {}
        notes: list[str] = []

        def gate(name: str, value: float, tol: float):
            residuals[name] = value
            tolerances[name] = tol

        reduced = _reduced_gamma(preset, frame)
        gate("reduced_connection", norm_residual(reduced, frame.gamma_tilde), tolerance)

        q_direct = nonmetricity_direct(frame.gamma_tilde, frame.geo.metric)
        q_general = nonmetricity_predicted(
            frame.geo.g, frame.u1.comp, frame.u2.comp, frame.f1.value, frame.f2.value
        )
        gate("metricity_general", norm_residual(q_direct, q_general), tolerance)

        stated = _stated_metricity(preset, frame)
        stated_res = norm_residual(q_direct, stated)
        if preset.prose_deviation is None:
            gate("metricity_stated", stated_res, tolerance)
        else:
            reported["metricity_stated"] = stated_res
            notes.append(f"case {preset.id}: {preset.prose_deviation} "
                         f"(stated-law residual {stated_res:.3e})")

        t_direct = torsion_direct(frame.gamma_tilde)
        t_law = torsion_predicted(frame.u.comp, frame.phi.comp)
        gate("torsion_law", norm_residual(t_direct, t_law), tolerance)
        if preset.symmetric:
            gate("torsion_zero", norm_residual(t_direct, np.zeros_like(t_direct)), tolerance)

        if preset.id == "17":
            omega = frame.u1
            s = cov_deriv_oneform(omega.comp, omega.d1, frame.geo.gamma) - np.einsum(
                "pi,pj->pij", omega.comp, omega.comp
            )
            eye = np.eye(frame.geo.n)
            s_skew = s - s.swapaxes(1, 2)
            r_reduced = (
                frame.geo.riemann.r
                + np.einsum("pik,lj->plijk", s, eye, order="F")
                - np.einsum("pjk,li->plijk", s, eye, order="F")
                + np.einsum("pij,lk->plijk", s_skew, eye, order="F")
            )
            r_formula, _ = curvature_formula(frame)
            r_direct = curvature_direct(manifold.chart, manifold.metric, spec, frame.geo.pts)
            gate("curvature_reduced_vs_formula", norm_residual(r_reduced, r_formula), tolerance)
            gate(
                "curvature_reduced_vs_direct",
                norm_residual(r_reduced, r_direct),
                curvature_tolerance,
            )
            gate("s_skew_identity", norm_residual(s_skew, exterior_2du(omega)), tolerance)

        aliases: dict[str, bool] = {}
        slots = {"u": frame.u, "u1": frame.u1, "u2": frame.u2}
        for left, right in preset.alias_pairs:
            aliases[f"{left}_is_{right}"] = slots[left] is slots[right]

        if preset.requires_curved and max_abs(frame.phi.comp) == 0.0:
            notes.append(
                f"case {preset.id}: the Ricci operator vanishes on this metric, "
                "so the preset degenerates to the Levi-Civita connection"
            )

        passed = all(
            residuals[name] <= tolerances[name] for name in residuals
        ) and all(aliases.values())
    return CaseCheckResult(
        case_id=preset.id,
        name=preset.name,
        residuals=residuals,
        tolerances=tolerances,
        reported=reported,
        aliases=aliases,
        notes=notes,
        passed=passed,
    )
