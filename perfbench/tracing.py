"""Per-layer tracing of affconn from outside the library.

``Tracer.install()`` replaces the public functions of the affconn modules
with timing wrappers, in every module namespace that imported them (for
example ``evaluate_spec`` is called as ``affconn.curvature.evaluate_spec``
and ``affconn.cli.evaluate_spec``, and ``PointGeometry`` reaches
``inverse_metric`` through ``affconn.levi_civita``'s globals), and the jet
methods on the field classes.  Each call records a span: target, start,
end, parent span and operation id.  Spans stay in memory; ``summary`` turns
them into per-layer self times and counts, and ``write_spans`` writes them
out once at the end.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the work is single-threaded.
The polynomial algebra (``random_polynomial``, ``poly_from_json``,
``PolynomialExpr``) is not wrapped, so its construction cost stays with the
caller: ``connection.random_spec`` or ``cli.parse_config``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import weakref

import numpy as np

LAYERS = ("fields", "levi_civita", "connection", "curvature", "cases", "cli")

# (module, attribute, layer, bucket).  A bucket is reported as
# "<layer>.<bucket>_s"; "other" only counts toward "<layer>.self_s".
TARGETS = (
    ("fields", "ConstantMetricField.jet", "fields", "metric_jet"),
    ("fields", "Sphere2MetricField.jet", "fields", "metric_jet"),
    ("fields", "HalfPlaneMetricField.jet", "fields", "metric_jet"),
    ("fields", "PolynomialMetricField.jet", "fields", "metric_jet"),
    ("fields", "PolynomialScalarField.jet", "fields", "field_jet"),
    ("fields", "PolynomialOneFormField.jet", "fields", "field_jet"),
    ("fields", "PolynomialEndoField.jet", "fields", "field_jet"),
    ("fields", "IdentityEndoField.jet", "fields", "field_jet"),
    ("cases", "SymmetricPartEndoField.jet_geo", "fields", "field_jet"),
    ("cases", "SkewPartEndoField.jet_geo", "fields", "field_jet"),
    ("cases", "RicciOperatorEndoField.jet_geo", "fields", "field_jet"),
    ("fields", "preset_manifold", "fields", "other"),
    ("fields", "evaluate_jets", "fields", "other"),
    ("levi_civita", "inverse_metric", "levi_civita", "inverse"),
    ("levi_civita", "christoffel", "levi_civita", "christoffel"),
    ("levi_civita", "riemann", "levi_civita", "riemann"),
    ("levi_civita", "riemann_d1", "levi_civita", "riemann"),
    ("levi_civita", "ricci_data", "levi_civita", "ricci"),
    ("levi_civita", "cov_deriv_oneform", "levi_civita", "other"),
    ("levi_civita", "cov_deriv_vector", "levi_civita", "other"),
    ("levi_civita", "cov_deriv_endo", "levi_civita", "other"),
    ("levi_civita", "cov_deriv", "levi_civita", "other"),
    ("connection", "random_spec", "connection", "random_spec"),
    ("connection", "evaluate_spec", "connection", "evaluate_spec"),
    ("connection", "split_phi", "connection", "split_phi"),
    ("connection", "sharp", "connection", "sharp"),
    ("connection", "deformation_h", "connection", "deformation_h"),
    ("connection", "torsion_direct", "connection", "laws"),
    ("connection", "torsion_predicted", "connection", "laws"),
    ("connection", "nonmetricity_direct", "connection", "laws"),
    ("connection", "nonmetricity_predicted", "connection", "laws"),
    ("connection", "transpose_torsion_from_metric", "connection", "laws"),
    ("connection", "transpose_torsion_closed", "connection", "laws"),
    ("connection", "max_abs", "connection", "residual"),
    ("connection", "norm_residual", "connection", "residual"),
    ("connection", "resolve_endo_jet", "connection", "other"),
    ("curvature", "curvature_formula", "curvature", "formula"),
    ("curvature", "curvature_direct", "curvature", "direct"),
    ("curvature", "diagnose", "curvature", "diagnose"),
    ("curvature", "eta_helpers", "curvature", "helpers"),
    ("curvature", "mu_tensor", "curvature", "helpers"),
    ("curvature", "exterior_2du", "curvature", "helpers"),
    ("curvature", "r0", "curvature", "helpers"),
    ("curvature", "compare_curvature", "curvature", "other"),
    ("curvature", "needed_order", "curvature", "other"),
    ("cases", "verify_case", "cases", "verify_case"),
    ("cases", "build_case", "cases", "build_case"),
    ("cases", "get_case", "cases", "other"),
    ("cases", "list_cases", "cases", "other"),
    ("cases", "case_ids", "cases", "other"),
    ("cli", "parse_config", "cli", "parse_config"),
    ("cli", "render_json", "cli", "render"),
    ("cli", "render_pretty", "cli", "render"),
    ("cli", "cmd_verify", "cli", "verify"),
    ("cli", "cmd_tensors", "cli", "other"),
    ("cli", "cmd_cases", "cli", "other"),
    ("cli", "cmd_ablate", "cli", "other"),
    ("cli", "main", "cli", "other"),
)

_JET_BUCKETS = {"metric_jet", "field_jet"}
_MODULES = ("",) + LAYERS + ("errors",)

# Per-layer metrics, all per traced pass: name -> unit.
LAYER_METRICS = {
    "fields.metric_jet_s": "s/pass",
    "fields.field_jet_s": "s/pass",
    "fields.field_jet_calls": "count/pass",
    "fields.monomial_evals": "count/pass",
    "fields.monomial_evals_per_s": "1/s",
    "fields.jet_distinct_ratio": "ratio",
    "fields.jet_distinct_ratio_fail": "ratio",
    "fields.self_s": "s/pass",
    "levi_civita.inverse_s": "s/pass",
    "levi_civita.christoffel_s": "s/pass",
    "levi_civita.riemann_s": "s/pass",
    "levi_civita.ricci_s": "s/pass",
    "levi_civita.self_s": "s/pass",
    "connection.random_spec_s": "s/pass",
    "connection.evaluate_spec_s": "s/pass",
    "connection.evaluate_spec_calls": "count/pass",
    "connection.evaluate_spec_calls_per_fail": "count",
    "connection.split_phi_s": "s/pass",
    "connection.sharp_s": "s/pass",
    "connection.deformation_h_s": "s/pass",
    "connection.laws_s": "s/pass",
    "connection.residual_s": "s/pass",
    "connection.self_s": "s/pass",
    "curvature.formula_s": "s/pass",
    "curvature.direct_s": "s/pass",
    "curvature.direct_calls": "count/pass",
    "curvature.direct_calls_per_fail": "count",
    "curvature.diagnose_s": "s/pass",
    "curvature.helpers_s": "s/pass",
    "curvature.self_s": "s/pass",
    "cases.verify_case_s": "s/pass",
    "cases.build_case_s": "s/pass",
    "cases.self_s": "s/pass",
    "cli.parse_config_s": "s/pass",
    "cli.render_s": "s/pass",
    "cli.verify_s": "s/pass",
    "cli.self_s": "s/pass",
    "harness.self_s": "s/pass",
    "trace.wall_s": "s/pass",
    "trace.spans": "count/pass",
    "trace.overhead_frac": "ratio",
    "computed.points_per_op": "points",
    "computed.rank5_bytes": "B",
}


def _resolve(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _jet_args(args, kwargs):
    """(field, points, order) of a ``jet(pts, order=...)`` or ``jet_geo(geo)``
    call."""
    field, where = args[0], args[1]
    if hasattr(field, "jet_geo"):
        return field, where.pts, None
    return field, where, kwargs.get("order", args[2] if len(args) > 2 else None)


def _jet_terms(field, order) -> int:
    """Monomial terms one jet of ``field`` evaluates, summed over every
    polynomial and derivative it needs (see affconn.fields)."""
    cls = type(field).__name__
    ranks = (0, 1)
    if cls == "PolynomialScalarField":
        exprs = [field.expr]
    elif cls == "PolynomialOneFormField":
        exprs = list(field.comps)
    elif cls == "PolynomialEndoField":
        exprs = [e for row in field.entries for e in row]
    elif cls == "PolynomialMetricField":
        n = field.n
        exprs = [field.entries[i][j] for i in range(n) for j in range(i, n)]
        ranks = range((order or 1) + 1)
    else:
        return 0
    total = 0
    for expr in exprs:
        for rank in ranks:
            for multi in itertools.combinations_with_replacement(range(field.n), rank):
                e = expr
                for k in multi:
                    e = e.deriv(k)
                total += len(e.terms)
    return total


class Tracer:
    """Span recorder for one traced phase of a worker.

    ``namespaces`` are extra modules (the harness's own) whose references
    to affconn functions are wrapped too.  Set ``op`` to the index of the
    running operation before each one.
    """

    def __init__(self, namespaces=()):
        # [target, start, end, parent, op, covered_end]; covered_end also
        # spans the tracer's own jet bookkeeping, which no layer is charged.
        self.spans: list[list] = []
        self.op = -1
        self.jet_calls = {"all": 0, "fail": 0}
        self.distinct_jets = {"all": 0, "fail": 0}
        self.monomials = 0
        self.failing_ops: set[int] = set()
        self._namespaces = tuple(namespaces)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._jet_op = None
        self._seen: set = set()
        self._alive: list = []
        self._terms: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _count_jet(self, args, kwargs, op: int):
        """Count a jet call, whether it is distinct within its operation
        (by field identity, point values and order), and its monomials."""
        if op != self._jet_op:
            self._jet_op, self._seen, self._alive = op, set(), []
        field, pts, order = _jet_args(args, kwargs)
        self._alive.append((field, pts))  # no id reuse within the operation
        arr = np.ascontiguousarray(pts, dtype=float)
        key = (id(field), arr.shape, hash(arr.tobytes()), order)
        new = key not in self._seen
        self._seen.add(key)
        scopes = ("all", "fail") if op in self.failing_ops else ("all",)
        for scope in scopes:
            self.jet_calls[scope] += 1
            self.distinct_jets[scope] += new
        per_order = self._terms.setdefault(field, {})
        if order not in per_order:
            per_order[order] = _jet_terms(field, order)
        self.monomials += per_order[order] * arr.shape[0]

    def _wrap(self, target: int, fn, jet: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [target, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if jet:
                    self._count_jet(args, kwargs, span[4])
                span[5] = clock()

        return wrapper

    def install(self):
        modules = [sys.modules["affconn" + (f".{m}" if m else "")] for m in _MODULES]
        modules += self._namespaces
        for idx, (mod, attr, _layer, bucket) in enumerate(TARGETS):
            owner, name = _resolve(sys.modules[f"affconn.{mod}"], attr)
            if isinstance(owner, type):
                orig = owner.__dict__[name]
                self._restore.append((owner, name, orig))
                setattr(owner, name, self._wrap(idx, orig, bucket in _JET_BUCKETS))
                continue
            orig = getattr(owner, name)
            wrapper = self._wrap(idx, orig, False)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, orig))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()
        self._seen, self._alive = set(), []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self, passes: int, wall: float) -> dict:
        """Per-layer metrics per pass: every LAYER_METRICS entry except
        ``trace.overhead_frac`` and ``computed.*``, which the worker adds."""
        spans = self.spans
        cover = [0.0] * len(spans)
        top_level = 0.0
        for _target, start, _end, parent, _op, covered_end in spans:
            if parent >= 0:
                cover[parent] += covered_end - start
            else:
                top_level += covered_end - start
        bucket_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        fail_calls: dict[str, int] = {}
        for i, (target, start, end, _parent, op, _covered) in enumerate(spans):
            _mod, attr, layer, bucket = TARGETS[target]
            key = f"{layer}.{bucket}"
            bucket_s[key] = bucket_s.get(key, 0.0) + (end - start) - cover[i]
            calls[attr] = calls.get(attr, 0) + 1
            if op in self.failing_ops:
                fail_calls[attr] = fail_calls.get(attr, 0) + 1

        def per_pass(value):
            return value / passes

        def per_fail(attr):
            return fail_calls.get(attr, 0) / max(1, len(self.failing_ops))

        def ratio(scope):
            return self.distinct_jets[scope] / max(1, self.jet_calls[scope])

        jet_s = bucket_s.get("fields.metric_jet", 0.0) + bucket_s.get("fields.field_jet", 0.0)
        out = {
            "fields.field_jet_calls": per_pass(
                sum(calls.get(a, 0) for _m, a, _l, b in TARGETS if b == "field_jet")
            ),
            "fields.monomial_evals": per_pass(self.monomials),
            "fields.monomial_evals_per_s": self.monomials / jet_s if jet_s else 0.0,
            "fields.jet_distinct_ratio": ratio("all"),
            "fields.jet_distinct_ratio_fail": ratio("fail"),
            "connection.evaluate_spec_calls": per_pass(calls.get("evaluate_spec", 0)),
            "connection.evaluate_spec_calls_per_fail": per_fail("evaluate_spec"),
            "curvature.direct_calls": per_pass(calls.get("curvature_direct", 0)),
            "curvature.direct_calls_per_fail": per_fail("curvature_direct"),
            "harness.self_s": per_pass(wall - top_level),
            "trace.wall_s": per_pass(wall),
            "trace.spans": per_pass(len(spans)),
        }
        for name in LAYER_METRICS:
            layer, _, rest = name.partition(".")
            if name in out or layer not in LAYERS or not rest.endswith("_s"):
                continue
            if rest == "self_s":
                prefix = layer + "."
                out[name] = per_pass(sum(v for k, v in bucket_s.items() if k.startswith(prefix)))
            else:
                out[name] = per_pass(bucket_s.get(f"{layer}.{rest[:-2]}", 0.0))
        return out

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for target, start, end, parent, op, _covered in self.spans:
                fh.write(json.dumps([TARGETS[target][1], start, end, parent, op]) + "\n")
