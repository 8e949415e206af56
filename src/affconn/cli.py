"""Command-line interface: verify, tensors, cases, ablate.

Configs are JSON.  Reports are emitted on stdout, as JSON (default) or an
indented text rendering; every float is printed with 17 significant digits
and dictionary keys are sorted, so a report is byte-stable for a fixed
config and seed.  Exit codes: 0 all checks pass, 1 a residual exceeded its
tolerance or was not finite (``verify``; ``tensors`` and ``ablate`` exit 1
only on a non-finite tensor or residual, which they render as null and
name), 2 configuration or usage error.

Config schema::

    {
      "manifold": {"preset": "euclidean", "n": 2}
                  | {"chart": {"lower": [...], "upper": [...]},
                     "metric": [[poly, ...], ...]},
      "connection": {"case": "12", "bindings": {"u": [poly, ...], ...}}
                  | {"raw": {"f1": poly, "f2": poly, "u": [poly, ...],
                             "u1": [...], "u2": [...], "phi": [[poly, ...]]}},
      "points": [[x, ...], ...] | {"count": 20, "seed": 7},
      "tolerances": {"torsion": 1e-10, "metricity": 1e-10,
                     "transpose": 1e-10, "antisymmetry": 1e-10,
                     "curvature": 1e-8},
      "output": "json" | "pretty"
    }

A polynomial is a bare number (a constant) or ``{"terms": [{"c": coeff,
"e": [exponents]}]}``.  The sampler seed is mandatory.  Raw-spec fields
default to zero when omitted.  A tolerance, in the config or from
``--tolerance``, is above 0 and below 2: a residual never exceeds 2.  A
batch of m points at dimension n holds m n^4 <= 16,000,000 curvature
entries: 1,000,000 points at n = 2, 3906 at n = 8.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .cases import _PHI_MODES, build_case, case_rows, get_case, list_cases
from .connection import (
    ConnectionSpec,
    Corruption,
    _valid_tolerance,
    evaluate_spec,
    norm_residual,
    transpose_torsion_closed,
    transpose_torsion_from_metric,
)
from .curvature import curvatures, diagnose, needed_order
from .errors import (
    AffconnError,
    BadParams,
    CaseUnknown,
    DimensionMismatch,
    ExtraBinding,
    MetricNotPositiveDefinite,
    MissingBinding,
    PointOutsideDomain,
    SchemaError,
    UnknownPreset,
)
from .fields import (
    Chart,
    Manifold,
    PolynomialEndoField,
    PolynomialMetricField,
    PolynomialOneFormField,
    PolynomialScalarField,
    _evaluation_context,
    _is_finite,
    poly_from_json,
    preset_manifold,
)

__all__ = ["RunConfig", "parse_config", "main"]

_CONVENTIONS = {
    "indexing": "all JSON tensor indices are 0-based coordinate indices",
    "metric": "g[i][j] = g(d_i, d_j)",
    "oneform": "eta[i] = eta(d_i)",
    "endo": "phi[i][j] = phi^i_j, a matrix acting on column vectors",
    "gamma": "gamma[k][i][j] = Gamma^k_ij with nabla_{d_i} d_j = Gamma^k_ij d_k",
    "torsion": "t[k][i][j] = T~^k_ij",
    "nabla_g": "q[i][j][k] = (nabla~_{d_i} g)(d_j, d_k)",
    "curvature": "r[l][i][j][k] = d_l component of R~(d_i, d_j) d_k",
    "residual": "max over points p of max|a_p - b_p| / max(1, max|a_p|, max|b_p|)",
}

# A batch of m points at dimension n makes curvature tensors of m * n**4
# entries each, so that count caps it: 1,000,000 points at n = 2, 3906 at
# n = 8.  A sampler is refused before it samples.
_MAX_CURVATURE_ENTRIES = 16_000_000

_DEFAULT_TOLERANCES = {
    "torsion": 1e-10,
    "metricity": 1e-10,
    "transpose": 1e-10,
    "antisymmetry": 1e-10,
    "curvature": 1e-8,
}


class RunConfig:
    def __init__(self, manifold, spec, case_id, bindings, points, tolerances, output):
        self.manifold = manifold
        self.spec = spec
        self.case_id = case_id  # None for raw specs
        self.bindings = bindings  # binding names, for the report echo
        self.points = points
        self.tolerances = tolerances
        self.output = output


# ---------------------------------------------------------------------------
# Config parsing


def _expect_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return obj


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    if not _is_finite(obj):
        raise SchemaError(f"{where}: expected a finite number")
    return float(obj)


def _int(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected an integer")
    return obj


def _field_rows(n: int, obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of polynomials")
    if len(obj) != n:
        raise DimensionMismatch(
            f"{where}: has {len(obj)} components, manifold dimension is {n}"
        )
    return obj


def _at(where: str, build):
    """``build()``, with ``where: `` put before a parameter error's message."""
    try:
        return build()
    except (BadParams, CaseUnknown, DimensionMismatch, ExtraBinding, MissingBinding,
            UnknownPreset) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _parse_oneform(n: int, obj, where: str) -> PolynomialOneFormField:
    comps = [
        poly_from_json(n, c, f"{where}[{i}]")
        for i, c in enumerate(_field_rows(n, obj, where))
    ]
    return PolynomialOneFormField(n, comps)


def _poly_grid(n: int, obj, where: str) -> list:
    """An n x n grid of polynomials, each addressed ``where[i][j]``."""
    return [
        [
            poly_from_json(n, e, f"{where}[{i}][{j}]")
            for j, e in enumerate(_field_rows(n, row, f"{where}[{i}]"))
        ]
        for i, row in enumerate(_field_rows(n, obj, where))
    ]


def _parse_endo(n: int, obj, where: str) -> PolynomialEndoField:
    return PolynomialEndoField(n, _poly_grid(n, obj, where))


def _parse_manifold(obj) -> Manifold:
    obj = _expect_dict(obj, "manifold")
    if "preset" in obj:
        params = dict(obj)
        name = params.pop("preset")
        if not isinstance(name, str):
            raise SchemaError("manifold.preset: expected a string")
        return _at("manifold", lambda: preset_manifold(name, params))
    if "chart" not in obj or "metric" not in obj:
        raise SchemaError(
            "manifold: expected either a 'preset' or a 'chart' plus 'metric'"
        )
    extra = set(obj) - {"chart", "metric"}
    if extra:
        raise SchemaError(f"manifold: unknown keys {sorted(extra)}")
    box = _expect_dict(obj["chart"], "manifold.chart")
    if set(box) != {"lower", "upper"}:
        raise SchemaError("manifold.chart: expected exactly 'lower' and 'upper'")
    lower = box["lower"]
    upper = box["upper"]
    for key, val in (("lower", lower), ("upper", upper)):
        if not isinstance(val, list) or not val:
            raise SchemaError(f"manifold.chart.{key}: expected a non-empty list")
        for i, x in enumerate(val):
            _number(x, f"manifold.chart.{key}[{i}]")
    if len(lower) != len(upper):
        raise SchemaError("manifold.chart: lower and upper must have equal length")
    n = len(lower)
    chart = _at("manifold.chart", lambda: Chart(n, lower, upper))
    grid = _poly_grid(n, obj["metric"], "manifold.metric")
    metric = _at("manifold.metric", lambda: PolynomialMetricField(n, grid))
    return Manifold("inline", chart, metric, {"n": n})


def _parse_connection(obj, manifold: Manifold):
    obj = _expect_dict(obj, "connection")
    has_case = "case" in obj
    has_raw = "raw" in obj
    if has_case == has_raw:
        raise SchemaError("connection: exactly one of 'case' and 'raw' must be present")
    n = manifold.chart.n
    if has_case:
        extra = set(obj) - {"case", "bindings"}
        if extra:
            raise SchemaError(f"connection: unknown keys {sorted(extra)}")
        case_id = obj["case"]
        if isinstance(case_id, bool) or not isinstance(case_id, (int, str)):
            raise SchemaError("connection.case: expected a case id")
        preset = _at("connection.case", lambda: get_case(case_id))
        bindings_json = _expect_dict(obj.get("bindings", {}), "connection.bindings")
        bindings = {}
        for name, val in bindings_json.items():
            where = f"connection.bindings.{name}"
            if name == "phi":
                bindings[name] = _parse_endo(n, val, where)
            else:
                bindings[name] = _parse_oneform(n, val, where)
        spec = _at("connection.bindings", lambda: build_case(preset.id, bindings, manifold))
        return spec, preset.id, sorted(bindings)
    extra = set(obj) - {"raw"}
    if extra:
        raise SchemaError(f"connection: unknown keys {sorted(extra)}")
    raw = _expect_dict(obj["raw"], "connection.raw")
    known = {"f1", "f2", "u", "u1", "u2", "phi"}
    extra = set(raw) - known
    if extra:
        raise SchemaError(f"connection.raw: unknown keys {sorted(extra)}")
    kwargs = {}
    for name in ("f1", "f2"):
        if name in raw:
            kwargs[name] = PolynomialScalarField(
                n, poly_from_json(n, raw[name], f"connection.raw.{name}")
            )
    for name in ("u", "u1", "u2"):
        if name in raw:
            kwargs[name] = _parse_oneform(n, raw[name], f"connection.raw.{name}")
    if "phi" in raw:
        kwargs["phi"] = _parse_endo(n, raw["phi"], "connection.raw.phi")
    return ConnectionSpec.build(n, **kwargs), None, sorted(raw)


def _parse_points(obj, chart: Chart) -> np.ndarray:
    limit = _MAX_CURVATURE_ENTRIES // chart.n**4
    at_n = f"at n = {chart.n} (m n^4 <= {_MAX_CURVATURE_ENTRIES} curvature entries)"
    if isinstance(obj, dict):
        if set(obj) != {"count", "seed"}:
            raise SchemaError("points: sampler needs exactly 'count' and 'seed'")
        count = _int(obj["count"], "points.count")
        seed = _int(obj["seed"], "points.seed")
        if not 1 <= count <= limit:
            raise SchemaError(f"points.count: expected an integer from 1 to {limit} {at_n}")
        if seed < 0:
            raise SchemaError("points.seed: expected a non-negative integer")
        return _at("points", lambda: chart.sample(count, seed))
    if not isinstance(obj, list) or not obj:
        raise SchemaError("points: expected a non-empty list or a {count, seed} sampler")
    if len(obj) > limit:
        raise SchemaError(f"points: expected at most {limit} points {at_n}")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != chart.n:
            raise SchemaError(f"points[{i}]: expected {chart.n} coordinates")
        rows.append([_number(x, f"points[{i}][{j}]") for j, x in enumerate(row)])
    pts = np.array(rows, dtype=float)
    inside = chart.contains(pts)
    if not np.all(inside):
        raise PointOutsideDomain(
            f"points[{int(np.argmin(inside))}]: outside the chart box "
            f"{chart.lower.tolist()}..{chart.upper.tolist()}"
        )
    return pts


def _parse_tolerances(obj) -> dict:
    tols = dict(_DEFAULT_TOLERANCES)
    if obj is None:
        return tols
    obj = _expect_dict(obj, "tolerances")
    extra = set(obj) - set(tols)
    if extra:
        raise SchemaError(f"tolerances: unknown keys {sorted(extra)}")
    for name, val in obj.items():
        where = f"tolerances.{name}"
        tols[name] = _valid_tolerance(_number(val, where), where)
    return tols


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config string."""
    root = _expect_dict(json.loads(text), "config")
    extra = set(root) - {"manifold", "connection", "points", "tolerances", "output"}
    if extra:
        raise SchemaError(f"config: unknown keys {sorted(extra)}")
    for key in ("manifold", "connection", "points"):
        if key not in root:
            raise SchemaError(f"config: missing required key '{key}'")
    manifold = _parse_manifold(root["manifold"])
    spec, case_id, bindings = _parse_connection(root["connection"], manifold)
    points = _parse_points(root["points"], manifold.chart)
    tolerances = _parse_tolerances(root.get("tolerances"))
    output = root.get("output", "json")
    if output not in ("json", "pretty"):
        raise SchemaError("output: expected 'json' or 'pretty'")
    return RunConfig(manifold, spec, case_id, bindings, points, tolerances, output)


# ---------------------------------------------------------------------------
# Deterministic rendering


def _fmt_float(v) -> str:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise ValueError("refusing to serialize a non-finite number")
    s = format(v, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _render_json(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif isinstance(obj, np.ndarray):
        _render_json(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string report key {key!r}")
            if idx:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _render_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def render_json(obj) -> str:
    out: list = []
    _render_json(obj, out)
    return "".join(out)


def _scalar_text(obj) -> str | None:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    return None


def _render_pretty(obj, indent: str, lines: list):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            scalar = _scalar_text(val)
            if scalar is not None:
                lines.append(f"{indent}{key}: {scalar}")
            elif isinstance(val, (dict, list, tuple, np.ndarray)) and len(val) == 0:
                lines.append(f"{indent}{key}: (empty)")
            else:
                lines.append(f"{indent}{key}:")
                _render_pretty(val, indent + "  ", lines)
    elif isinstance(obj, (list, tuple)):
        flat = [_scalar_text(v) for v in obj]
        if all(s is not None for s in flat):
            lines.append(f"{indent}[{', '.join(flat)}]")
        else:
            for val in obj:
                scalar = _scalar_text(val)
                if scalar is not None:
                    lines.append(f"{indent}- {scalar}")
                else:
                    lines.append(f"{indent}-")
                    _render_pretty(val, indent + "  ", lines)
    else:
        lines.append(f"{indent}{_scalar_text(obj)}")


def render_pretty(obj) -> str:
    lines: list = []
    _render_pretty(obj, "", lines)
    return "\n".join(lines)


def _emit(report: dict, output: str) -> None:
    if output == "pretty":
        sys.stdout.write(render_pretty(report) + "\n")
    else:
        sys.stdout.write(render_json(report) + "\n")


def _manifold_echo(manifold: Manifold) -> dict:
    return {
        "name": manifold.name,
        "n": manifold.chart.n,
        "params": dict(manifold.params),
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_verify(config: RunConfig, corrupt_term: str | None = None) -> tuple[int, dict]:
    corruption = None
    if corrupt_term is not None:
        corruption = _at("--corrupt-term", lambda: Corruption(corrupt_term))

    # One context for the whole command: diagnose reuses its first evaluation.
    with _evaluation_context():
        chart, metric = config.manifold.chart, config.manifold.metric
        spec, pts, tols = config.spec, config.points, config.tolerances
        # A numeric blow-up fails its checks by name below, not through warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            # H, the formula and the oracle each double the term if they own it.
            frame = evaluate_spec(
                chart, metric, spec, pts, order=needed_order(spec), corrupt=corruption
            )

            tp_metric = transpose_torsion_from_metric(
                frame.torsion, frame.geo.g, frame.geo.ginv
            )
            tp_closed = transpose_torsion_closed(
                frame.u.comp, frame.split, frame.u_sharp.comp
            )
            run = curvatures(frame)
            r_formula, _, r_direct = run
            # np.max, unlike max(), keeps a NaN residual
            antisym = float(np.max([norm_residual(r_formula, -r_formula.swapaxes(2, 3)),
                                    norm_residual(r_direct, -r_direct.swapaxes(2, 3))]))
            rows = frame.law_rows() + [
                ("transpose_torsion_law", norm_residual(tp_metric, tp_closed), "transpose"),
                ("curvature_antisymmetry", antisym, "antisymmetry"),
                ("curvature_formula_vs_direct", norm_residual(r_formula, r_direct),
                 "curvature"),
            ]
            if config.case_id is not None:  # and the preset's own laws
                preset = get_case(config.case_id)
                rows += case_rows(preset, frame, lambda: run)

        # A row without a tolerance key is reported, not gated.  A non-finite
        # residual has no number to report: a gated one fails and is named.
        gated = [(name, res, tols[key]) for name, res, key in rows if key is not None]
        non_finite = [name for name, res, _ in gated if not math.isfinite(res)]
        checks = [
            {
                "check": name,
                "residual": res if name not in non_finite else None,
                "tolerance": tol,
                "pass": bool(res <= tol),
            }
            for name, res, tol in gated
        ]
        reported = [{"check": name, "residual": res if math.isfinite(res) else None}
                    for name, res, key in rows if key is None]
        ok = all(c["pass"] for c in checks)
        report = {
            "command": "verify",
            "conventions": _CONVENTIONS,
            "manifold": _manifold_echo(config.manifold),
            "connection": {"case": config.case_id, "bindings": config.bindings},
            "points": config.points,
            "corrupt_term": corrupt_term,
            "checks": checks,
            "pass": ok,
        }
        if reported:
            report["reported"] = reported
        if non_finite:
            report["non_finite_checks"] = non_finite
        elif any(not c["pass"] for c in checks if c["check"] == "curvature_formula_vs_direct"):
            report["diagnosis"] = diagnose(
                chart, metric, spec, pts, tolerance=tols["curvature"], corrupt=corruption
            )
    return (0 if ok else 1), report


def _nulled(arr) -> list:
    """``arr`` as nested lists, each NaN or inf entry as None (JSON null)."""
    arr = np.asarray(arr, dtype=float)
    return np.where(np.isfinite(arr), arr, None).tolist()


def cmd_tensors(config: RunConfig) -> tuple[int, dict]:
    chart, metric = config.manifold.chart, config.manifold.metric
    spec, pts = config.spec, config.points
    # A numeric blow-up is named below, not reported through warnings.
    with _evaluation_context(), np.errstate(over="ignore", invalid="ignore"):
        frame = evaluate_spec(chart, metric, spec, pts, order=needed_order(spec))
        tensors = {
            "g": frame.geo.g,
            "gamma": frame.geo.gamma,
            "gamma_tilde": frame.gamma_tilde,
            "torsion": frame.torsion,
            "nabla_g": frame.nabla_g,
        }
        tensors["r_formula"], _, tensors["r_direct"] = curvatures(frame)
    non_finite = [name for name, arr in tensors.items() if not np.all(np.isfinite(arr))]
    per_point = [
        {"point": pts[p]}
        | {
            name: _nulled(arr[p]) if name in non_finite else arr[p]
            for name, arr in tensors.items()
        }
        for p in range(pts.shape[0])
    ]
    report = {
        "command": "tensors",
        "conventions": _CONVENTIONS,
        "manifold": _manifold_echo(config.manifold),
        "connection": {"case": config.case_id, "bindings": config.bindings},
        "tensors": per_point,
    }
    if non_finite:
        report["non_finite_tensors"] = non_finite
    return (1 if non_finite else 0), report


def cmd_cases() -> tuple[int, dict]:
    entries = [
        {
            "id": preset.id,
            "name": preset.name,
            "f1": preset.f1,
            "f2": preset.f2,
            "required_bindings": preset.required,
            "phi": _PHI_MODES[preset.phi_mode].description,
            "aliases": [f"{a} = {b}" for a, b in preset.alias_pairs],
            "symmetric": preset.symmetric,
            "manifold": "curved (Q != 0)" if preset.requires_curved else "any",
            "parent": preset.parent,
            "prose_deviation": preset.prose_deviation,
            "checks": preset.checks,
        }
        for preset in list_cases()
    ]
    report = {
        "command": "cases",
        "primary_count": sum(1 for e in entries if e["parent"] is None),
        "total_count": len(entries),
        "cases": entries,
    }
    return 0, report


def cmd_ablate(config: RunConfig) -> tuple[int, dict]:
    chart, metric = config.manifold.chart, config.manifold.metric
    # A numeric blow-up is named below, not reported through warnings.
    with _evaluation_context(), np.errstate(over="ignore", invalid="ignore"):
        result = diagnose(
            chart,
            metric,
            config.spec,
            config.points,
            tolerance=config.tolerances["curvature"],
        )
    finite = math.isfinite(result["residual"])
    groups = [
        {"term": row["term"]}
        | {
            k: row[k] if finite else _nulled(row[k])
            for k in ("contribution", "alignment", "explained_fraction")
        }
        for row in result["term_table"]
        if row["kind"] == "formula_group"
    ]
    report = {
        "command": "ablate",
        "conventions": _CONVENTIONS,
        "manifold": _manifold_echo(config.manifold),
        "connection": {"case": config.case_id, "bindings": config.bindings},
        "residual": result["residual"] if finite else None,
        "tolerance": result["tolerance"],
        "pass": result["pass"],
        "groups": groups,
        "binding_ablation": result["binding_ablation"],
        "minimal_failing_bindings": result["minimal_failing_bindings"],
    }
    if not finite:
        report["non_finite_checks"] = ["curvature_formula_vs_direct"]
    return (0 if finite else 1), report


# ---------------------------------------------------------------------------
# Entry point


def _load_config(path: str, tolerance: float | None, output_flag: str | None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    config = parse_config(text)
    if tolerance is not None:
        tolerance = _valid_tolerance(tolerance, "--tolerance")
        config.tolerances = {name: tolerance for name in config.tolerances}
    if output_flag is not None:
        config.output = output_flag
    return config


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affconn",
        description=(
            "Numerical checks for a family of metric deformations of the "
            "Levi-Civita connection: torsion, non-metricity, and curvature, "
            "each computed two independent ways."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity checks for a config")
    verify.add_argument("--config", required=True, help="path to a JSON config")
    verify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every tolerance with one value, above 0 and below 2",
    )
    verify.add_argument(
        "--corrupt-term",
        default=None,
        help="double one named term (sensitivity test hook)",
    )
    verify.add_argument("--output", choices=("json", "pretty"), default=None)

    tensors = sub.add_parser("tensors", help="dump the evaluated tensors per point")
    tensors.add_argument("--config", required=True)
    tensors.add_argument("--output", choices=("json", "pretty"), default=None)

    cases = sub.add_parser("cases", help="list the case presets")
    cases.add_argument("--output", choices=("json", "pretty"), default=None)

    ablate = sub.add_parser(
        "ablate", help="per-group curvature contributions and failing-term search"
    )
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--output", choices=("json", "pretty"), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "cases":
            code, report = cmd_cases()
            _emit(report, args.output or "json")
            return code
        config = _load_config(args.config, getattr(args, "tolerance", None), args.output)
        try:
            if args.command == "verify":
                code, report = cmd_verify(config, corrupt_term=args.corrupt_term)
            elif args.command == "tensors":
                code, report = cmd_tensors(config)
            else:
                code, report = cmd_ablate(config)
        except MetricNotPositiveDefinite as exc:
            # every command evaluates the metric at the config's points, in order
            where = "manifold.metric" if config.manifold.name == "inline" else "manifold"
            sys.stderr.write(f"error: points[{exc.point}]: {where}: eigenvalues "
                             f"{exc.eigenvalues} fail the SPD check\n")
            return 2
        _emit(report, config.output)
        return code
    except (AffconnError, json.JSONDecodeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
