"""Charts, polynomial fields, and exact jets.

Everything downstream consumes *jets*: a field's components together with
enough exact partial derivatives, evaluated at a batch of points.  No finite
differences anywhere; polynomial fields differentiate term by term and the
closed-form preset metrics ship hand-written derivatives.

Polynomial fields are immutable: their component containers are tuples.
Each one keeps a jet plan per derivative order, built from its polynomials
on the first jet call; every call after that only applies the plan to its
batch of points (see ``_JetPlan``).  Planning lowers columns of one dense
coefficient block and builds no derivative polynomial.  Fields evaluated
together at one batch (a spec's bindings and its metric) share one table of
monomial values per basis, an evaluation-context entry; each keeps its own
matmul.

Polynomial terms are checked once, where they enter: the public
``PolynomialExpr`` constructor and ``poly_from_json``.  The package's own
algebra keeps terms canonical and builds through ``_canonical`` unchecked.

``_memo`` is the one per-batch cache: inside an ``_evaluation_context``
it keeps each monomial table, each field's jet and the derived data callers
key through it, per (owners, point batch, order), until the outermost
context exits.  A command opens one context for its whole run.  Outside
one, ``ConnectionSpec.jets``, ``evaluate_jets``, ``evaluate_spec`` and the
oracle's jet step each open one over their jets, so those share monomial
tables; all of it is dropped when the call returns.  ``curvature_formula``
opens none: it builds each of its helpers once per call itself.

Array layout conventions (shared by the whole package):

- A batch of m points in an n-dimensional chart is an (m, n) array; the batch
  axis always leads in indexing.  In memory it is the other way round: every
  batched array the package computes from the points stores the point axis
  last (stride one item), seen through the view ``np.moveaxis(a, -1, 0)``,
  so einsum's inner loops run over points instead of over 2-4 tensor slots.
  einsum's default ``order='K'`` carries the layout into its outputs.  An
  einsum or ufunc that mixes a batched operand with a point-free constant
  (the identity) has no layout to carry, so it passes ``order="F"``: first
  axis fastest, which puts the points innermost.  Callers must not assume
  C-contiguity; ``batch_zeros`` and ``points_last`` make new arrays.
- Derivative indices come first, in the order the derivatives were taken:
  one-form ``d1[p, j, i] = d_j eta_i``; endomorphism ``d1[p, k, i, j] =
  d_k phi^i_j`` where ``comp[p, i, j] = phi^i_j`` acts as a matrix on column
  vectors; metric ``d1[p, k, i, j] = d_k g_ij``, ``d2[p, k, l, i, j]``,
  ``d3[p, k, l, q, i, j]``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    JetOrderUnsupported,
    MetricNotPositiveDefinite,
    PointOutsideDomain,
    SchemaError,
    UnknownPreset,
)

__all__ = [
    "Chart",
    "PolynomialExpr",
    "ScalarFieldJet",
    "Jet",
    "PointJets",
    "PolynomialScalarField",
    "PolynomialOneFormField",
    "PolynomialEndoField",
    "IdentityEndoField",
    "ConstantMetricField",
    "Sphere2MetricField",
    "HalfPlaneMetricField",
    "PolynomialMetricField",
    "Manifold",
    "preset_manifold",
    "evaluate_jets",
    "as_points",
    "batch_zeros",
    "points_last",
    "monomials_up_to",
    "random_polynomial",
    "poly_from_json",
]

_DOMAIN_SLACK = 1e-12
_SPD_RATIO = 1e-10
# Curvature derivatives hold n^5 entries per point: 256 KiB at n = 8.
_MAX_DIMENSION = 8
# The jet plan's power table holds exponents as int64.
_MAX_EXPONENT = np.iinfo(np.int64).max


def _points_first_view(arr: np.ndarray) -> np.ndarray:
    """``arr`` with its last axis, the points, moved to the front: the
    ``np.moveaxis(arr, -1, 0)`` view, at a fraction of its call cost."""
    last = arr.ndim - 1
    return arr.transpose((last, *range(last)))


def batch_zeros(m: int, shape: tuple) -> np.ndarray:
    """Zeros of shape (m, *shape), stored points-last."""
    return _points_first_view(np.zeros(shape + (m,)))


# Bytes of one point block's largest array (curvature, in the curvature
# paths; the compared tensors, in a residual).  A few temporaries of this
# size then stay within a core's L2 cache instead of being fresh full-batch
# allocations.  Fixed by measurement (README, "Memory layout").
_BLOCK_BYTES = 256 * 1024


def _whole(arr):
    return arr


def _blocks(m: int, entries: int) -> list:
    """The point blocks of a batch of ``m`` points, as functions that take a
    block's rows (views), each block ``_BLOCK_BYTES`` of an array with
    ``entries`` float64 entries per point; a batch of one block is
    ``[_whole]``, taken as it is.  The curvature formula, the oracle and the
    residuals run this loop, each on arrays of its own."""
    step = max(1, _BLOCK_BYTES // (8 * entries))
    if m <= step:
        return [_whole]
    return [operator.itemgetter(slice(start, start + step)) for start in range(0, m, step)]


def points_last(arr: np.ndarray) -> np.ndarray:
    """A points-last copy of the batched array ``arr``, same shape."""
    out = batch_zeros(arr.shape[0], arr.shape[1:])
    out[...] = arr
    return out


def as_points(p, n: int) -> np.ndarray:
    """Normalize a point or batch of points to an (m, n) float array."""
    pts = np.asarray(p, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatch(
            f"expected points of dimension {n}, got array of shape {np.shape(p)}"
        )
    return pts


@dataclass(frozen=True)
class Chart:
    """A box coordinate domain: lower[i] <= x^i <= upper[i]."""

    n: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if not 2 <= self.n <= _MAX_DIMENSION:
            raise BadParams(
                f"chart dimension must be from 2 to {_MAX_DIMENSION}, got {self.n}"
            )
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.shape != (self.n,) or hi.shape != (self.n,):
            raise DimensionMismatch(
                f"chart bounds must have length {self.n}, got {lo.shape} and {hi.shape}"
            )
        if not np.all(hi > lo):
            raise BadParams("chart upper bounds must exceed lower bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, pts) -> np.ndarray:
        pts = as_points(pts, self.n)
        return np.all(
            (pts >= self.lower - _DOMAIN_SLACK) & (pts <= self.upper + _DOMAIN_SLACK),
            axis=1,
        )

    def require_inside(self, pts) -> np.ndarray:
        pts = as_points(pts, self.n)
        ok = self.contains(pts)
        if not np.all(ok):
            bad = pts[np.argmin(ok)]
            raise PointOutsideDomain(
                f"point {bad.tolist()} outside chart box "
                f"{self.lower.tolist()}..{self.upper.tolist()}"
            )
        return pts

    def sample(self, count: int, rng) -> np.ndarray:
        """Draw points uniformly from the box. ``rng`` is a seed or Generator."""
        with np.errstate(over="ignore"):
            width = self.upper - self.lower
        if not np.all(np.isfinite(width)):
            raise BadParams(
                "cannot sample a chart box whose width overflows a float; "
                "list the points instead"
            )
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        u = rng.uniform(0.0, 1.0, size=(count, self.n))
        return self.lower + u * width


def monomials_up_to(n: int, degree: int, min_degree: int = 0):
    """All exponent tuples of total degree in [min_degree, degree], sorted."""
    out = []
    for total in range(min_degree, degree + 1):
        for bars in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for i in bars:
                e[i] += 1
            out.append(tuple(e))
    return sorted(set(out))


@functools.lru_cache(maxsize=64)
def _monomials(n: int, degree: int, min_degree: int) -> tuple:
    """``monomials_up_to``, enumerated once per (n, degree, min_degree)."""
    return tuple(monomials_up_to(n, degree, min_degree))


def _check_variables(n: int):
    if n < 1:
        raise BadParams(f"polynomial needs at least one variable, got n={n}")


class PolynomialExpr:
    """Multivariate polynomial with exact term-by-term differentiation.

    Terms are kept in a canonical sorted order so that algebraically equal
    construction paths produce bit-identical evaluations (mixed partials of a
    polynomial commute exactly, not just to rounding).

    The constructor is the trust boundary: it checks every exponent tuple,
    merges repeats and drops zeros.  The package's own algebra (arithmetic,
    ``deriv``, ``random_polynomial``, and ``poly_from_json`` once it has
    checked its input) makes canonical terms itself and builds through
    ``_canonical``, without those checks.
    """

    __slots__ = ("n", "terms", "_derivs")

    def __init__(self, n: int, terms=()):
        _check_variables(n)
        merged: dict[tuple, float] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = tuple(int(k) for k in e)
            if len(e) != n or any(k < 0 for k in e):
                raise BadParams(f"bad exponent tuple {e} for n={n}")
            merged[e] = merged.get(e, 0.0) + float(c)
        self.n = n
        self.terms = {e: c for e, c in sorted(merged.items()) if c != 0.0}
        self._derivs: dict[int, "PolynomialExpr"] = {}

    @classmethod
    def zero(cls, n: int) -> "PolynomialExpr":
        _check_variables(n)
        return _canonical(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "PolynomialExpr":
        _check_variables(n)
        return _canonical_sums(n, {(0,) * n: float(c)})

    @classmethod
    def coordinate(cls, n: int, i: int) -> "PolynomialExpr":
        _check_variables(n)
        e = [0] * n
        e[i] = 1
        return _canonical(n, {tuple(e): 1.0})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, pts) -> np.ndarray:
        (out,) = _JetPlan(self.n, (self,), (), 0).apply(as_points(pts, self.n))
        return out[0] if np.ndim(pts) == 1 else out

    def deriv(self, i: int) -> "PolynomialExpr":
        if not 0 <= i < self.n:
            raise BadParams(f"derivative index {i} out of range for n={self.n}")
        cached = self._derivs.get(i)
        if cached is None:
            # Lowering exponent i keeps the terms sorted, distinct and
            # nonzero, so they need no merge, sort or check.
            cached = self._derivs[i] = _canonical(self.n, {
                e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                for e, c in self.terms.items()
                if e[i] > 0
            })
        return cached

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return _canonical_sums(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, PolynomialExpr):
            # a scalar: the product with the constant polynomial, term by
            # term; zero is the zero polynomial, even against an inf term
            s = float(other)
            if s == 0.0:
                return _canonical(self.n, {})
            return _canonical_sums(self.n, {e: c * s for e, c in self.terms.items()})
        other = self._coerce(other)
        terms: dict[tuple, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return _canonical_sums(self.n, terms)

    __rmul__ = __mul__

    def _coerce(self, other) -> "PolynomialExpr":
        if isinstance(other, PolynomialExpr):
            if other.n != self.n:
                raise DimensionMismatch("mixing polynomials with different n")
            return other
        return PolynomialExpr.constant(self.n, other)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialExpr)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"PolynomialExpr({self.n}, 0)"
        bits = " + ".join(f"{c}*x^{e}" for e, c in self.terms.items())
        return f"PolynomialExpr({self.n}, {bits})"


def _canonical(n: int, terms: dict) -> PolynomialExpr:
    """The polynomial over ``terms``, which must already be canonical: exponent
    tuples of n ints, sorted and distinct, with nonzero float coefficients.
    Nothing is checked; only the package's own algebra builds this way."""
    expr = PolynomialExpr.__new__(PolynomialExpr)
    expr.n = n
    expr.terms = terms
    expr._derivs = {}
    return expr


def _canonical_sums(n: int, sums: dict) -> PolynomialExpr:
    """``_canonical`` over the sorted nonzero entries of ``sums``: checked
    exponent tuples, each mapped to its summed float coefficient."""
    return _canonical(n, {e: c for e, c in sorted(sums.items()) if c != 0.0})


def _is_finite(x) -> bool:
    """Whether the JSON number ``x`` (an int or a float) is a finite float.
    An integer too large for a float is not: ``math.isfinite`` raises
    OverflowError on it, and a config check must name it instead."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def poly_from_json(n: int, obj, where: str = "polynomial") -> PolynomialExpr:
    """Parse ``{"terms": [{"c": coeff, "e": [exponents]}]}``; bare numbers
    are accepted as constants."""
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected a polynomial, got a boolean")
    if isinstance(obj, (int, float)):
        if not _is_finite(obj):
            raise SchemaError(f"{where}: expected a finite number")
        return PolynomialExpr.constant(n, obj)
    if not isinstance(obj, dict) or set(obj) != {"terms"}:
        raise SchemaError(f"{where}: expected a number or {{'terms': [...]}}")
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise SchemaError(f"{where}.terms: expected a list")
    merged = _bulk_terms(n, terms)
    if merged is None:
        merged = _checked_terms(n, terms, where)
    _check_variables(n)
    return _canonical_sums(n, merged)


_TERM_FIELDS = operator.itemgetter("c", "e")


def _bulk_terms(n: int, terms: list) -> dict | None:
    """``_checked_terms`` for a term list that passes every check, each
    check made over the whole list at once; None if any check is in doubt,
    for ``_checked_terms`` to name the first bad term."""
    try:
        if not terms or set(map(type, terms)) != {dict} or set(map(len, terms)) != {2}:
            return None
        cs, es = zip(*map(_TERM_FIELDS, terms))
        if not set(map(type, cs)) <= {int, float} or not all(map(math.isfinite, cs)):
            return None
        if set(map(type, es)) != {list} or set(map(len, es)) != {n}:
            return None
        flat = list(itertools.chain.from_iterable(es))
        if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) > _MAX_EXPONENT:
            return None
    except (KeyError, OverflowError, ValueError):
        return None
    keys = list(map(tuple, es))
    if len(set(keys)) < len(keys):
        return None  # repeated exponents are summed in term order
    return dict(zip(keys, map(float, cs)))


def _checked_terms(n: int, terms: list, where: str) -> dict:
    """The terms as {exponent tuple: summed coefficient}, checked one by
    one; the first bad term is named by its path."""
    merged: dict[tuple, float] = {}
    for idx, t in enumerate(terms):
        if not isinstance(t, dict) or set(t) != {"c", "e"}:
            raise SchemaError(f"{where}.terms[{idx}]: expected {{'c': num, 'e': [ints]}}")
        c, e = t["c"], t["e"]
        if isinstance(c, bool) or not isinstance(c, (int, float)) or not _is_finite(c):
            raise SchemaError(f"{where}.terms[{idx}].c: expected a finite number")
        if (
            not isinstance(e, list)
            or len(e) != n
            or any(
                isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= _MAX_EXPONENT
                for k in e
            )
        ):
            raise SchemaError(
                f"{where}.terms[{idx}].e: expected {n} integers from 0 to 2^63 - 1"
            )
        e = tuple(e)
        merged[e] = merged.get(e, 0.0) + float(c)
    return merged


# ---------------------------------------------------------------------------
# One evaluation per run

class _Memo(dict):
    """The values of one evaluation context, by (kind, owner ids, batch
    token, order).  Each point batch is interned once: ``by_id`` maps an
    array's id to the array (held, so the id is not reused) and its token,
    and ``by_value`` gives equal batches one token.  Neither is a value
    entry, so the dict itself holds only values."""

    __slots__ = ("by_id", "by_value")

    def __init__(self):
        super().__init__()
        self.by_id: dict[int, tuple[np.ndarray, int]] = {}
        self.by_value: dict[tuple, int] = {}

    def token(self, pts: np.ndarray) -> int:
        """The token of ``pts``, an array not in ``by_id``.  The first
        array a memo sees gets token 0 unread; its values are read, with
        the next array's, when a second array comes.  Most contexts see
        one array, and reading copies it: a large batch's copy would add
        to the peak memory of the call."""
        if not self.by_id:
            return 0
        if not self.by_value:
            ((first, _),) = self.by_id.values()
            self.by_value[first.shape, first.tobytes()] = 0
        return self.by_value.setdefault((pts.shape, pts.tobytes()), len(self.by_value))


# The open memo: None outside every ``_evaluation_context``.
_MEMO: contextvars.ContextVar[_Memo | None] = contextvars.ContextVar(
    "affconn_memo", default=None
)


class _evaluation_context:
    """Scope inside which ``_memo`` computes each value once.  A context
    opened inside another joins it; the memo and every value in it are
    dropped when the outermost one exits."""

    __slots__ = ("token",)

    def __enter__(self):
        self.token = _MEMO.set(_Memo()) if _MEMO.get() is None else None

    def __exit__(self, *exc):
        if self.token is not None:
            _MEMO.reset(self.token)


def _read_only(value):
    """``value`` with every array it holds made read-only: an array, a tuple
    of values, or a dataclass (a jet, a Phi split) over arrays; any other
    object is left as it is."""
    if isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif hasattr(value, "__dataclass_fields__"):
        for item in value.__dict__.values():
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
    return value


def _memo(kind: str, owners: tuple, pts: np.ndarray, order, compute):
    """``compute()``, once per (kind, owners, point batch, order) inside an
    ``_evaluation_context``, and on every call outside one.

    ``owners`` are the objects the value is computed from (fields, the
    metric), matched by identity; ``pts`` is the validated (m, n) batch,
    matched by its values; ``order`` is any hashable that tells values of
    one kind apart besides those (a monomial table passes its basis key).
    A batch's values are read at most once per context, when its array or
    the next one is first seen, so an array must not be written while a
    context that has seen it is open.  An entry holds its owners, so no
    owner's id is reused while the memo lives.  Stored arrays are
    read-only.
    """
    memo = _MEMO.get()
    if memo is None:
        return compute()
    seen = memo.by_id.get(id(pts))
    if seen is None:
        seen = memo.by_id[id(pts)] = (pts, memo.token(pts))
    key = (kind, *map(id, owners), seen[1], order)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (owners, _read_only(compute()))
    return entry[1]


# ---------------------------------------------------------------------------
# Jets


@dataclass(frozen=True)
class ScalarFieldJet:
    value: np.ndarray  # (m,)
    grad: np.ndarray  # (m, n), grad[p, i] = d_i f


@dataclass(frozen=True)
class Jet:
    """A tensor field at a point batch with its exact partials.

    ``comp`` is (m, *shape); ``d1`` is (m, n, *shape), ``d2`` (m, n, n,
    *shape) and ``d3`` (m, n, n, n, *shape), the derivative axes right after
    the batch axis in the order the derivatives were taken.  Levels that
    were not evaluated are None.
    """

    comp: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None

    @property
    def levels(self) -> tuple:
        return (self.comp, self.d1, self.d2, self.d3)[: self.order + 1]

    @property
    def order(self) -> int:
        """How many derivative levels are present."""
        if self.d1 is None:
            return 0
        if self.d2 is None:
            return 1
        return 2 if self.d3 is None else 3

    def require_order(self, r: int, what: str):
        if self.order < r:
            raise JetOrderUnsupported(
                f"{what} needs jets of order {r}, evaluated order is {self.order}"
            )

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(*map(operator.add, self.levels, other.levels))

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(*map(operator.sub, self.levels, other.levels))

    def __neg__(self) -> "Jet":
        return Jet(*map(operator.neg, self.levels))

    def __mul__(self, c: float) -> "Jet":
        return Jet(*(c * a for a in self.levels))

    __rmul__ = __mul__


@dataclass(frozen=True)
class PointJets:
    points: np.ndarray
    metric: Jet
    fields: dict


def _sorted_multis(n: int, order: int):
    """The sorted multi-indices of rank 0..``order``, rank by rank in
    lexicographic order: how many there are; per rank from 1, the position
    of each one's parent (itself less its last index) and that last index;
    and, for each slot multi-index in ``itertools.product`` order, rank by
    rank, the position of its sorted form."""
    position = {(): 0}
    ranks = []
    for rank in range(1, order + 1):
        parents, steps = [], []
        for multi in itertools.combinations_with_replacement(range(n), rank):
            position[multi] = len(position)
            parents.append(position[multi[:-1]])
            steps.append(multi[-1])
        ranks.append((parents, steps))
    slots = [
        position[tuple(sorted(multi))]
        for rank in range(order + 1)
        for multi in itertools.product(range(n), repeat=rank)
    ]
    return len(position), ranks, np.array(slots)


class _Lowering:
    """What differentiating up to ``order`` times does to polynomials on a
    support of monomials, whatever their coefficients.

    ``basis`` is the sorted closure of the support under lowering one
    exponent, at most ``order`` times: every derivative of a polynomial on
    the support lives on it.  A coefficient block has one column per basis
    monomial, in ``column`` order, plus a last column that stays zero.
    Each step derives the blocks of one rank's sorted multi-indices from
    their parents' at once: column j takes the parent's coefficient of the
    monomial j + e_k (the zero column if that is not in the basis) times
    its exponent k, the factor ``deriv`` multiplies by.

    ``monomials`` tables every basis monomial at a batch of points: a power
    table ``x_i^k`` over the exponents that occur (``levels``), multiplied
    out per monomial (``index`` picks its powers).  ``key`` names the basis,
    so lowerings of other orders over the same basis share tables.

    One instance serves every plan over the same (n, order, support), so its
    arrays are read-only.
    """

    __slots__ = (
        "basis", "column", "exponents", "multis", "steps", "slots", "levels", "index", "key",
    )

    def __init__(self, n: int, order: int, support: frozenset):
        basis, frontier = set(support), support
        for _ in range(order):
            frontier = {
                e[:k] + (e[k] - 1,) + e[k + 1:] for e in frontier for k in range(n) if e[k]
            }
            basis |= frontier
        self.basis = tuple(sorted(basis))
        self.column = column = {mono: j for j, mono in enumerate(self.basis)}
        width = len(self.basis)
        self.exponents = np.array(self.basis).reshape(width, n)
        gather = [[width] * width for _ in range(n)]
        factor = [[1.0] * width for _ in range(n)]
        for j, mono in enumerate(self.basis):
            for k in range(n):
                source = column.get(mono[:k] + (mono[k] + 1,) + mono[k + 1:])
                if source is not None:
                    gather[k][j] = source
                    factor[k][j] = float(mono[k] + 1)
        gather, factor = np.array(gather), np.array(factor)
        self.multis, ranks, self.slots = _sorted_multis(n, order)
        # (first multi, stop, parents, gather, factor) of each rank's blocks
        self.steps, first = [], 1
        for parents, ks in ranks:
            stop = first + len(ks)
            self.steps.append((
                first, stop, np.array(parents)[:, None, None],
                gather[ks][:, None, :], factor[ks][:, None, :],
            ))
            first = stop
        self.levels = np.unique(self.exponents)
        self.index = (np.arange(n), np.searchsorted(self.levels, self.exponents))
        self.key = self.exponents.tobytes()
        for arr in (self.exponents, self.slots, self.levels, *self.index,
                    *(arr for step in self.steps for arr in step[2:])):
            arr.setflags(write=False)

    def monomials(self, pts: np.ndarray) -> np.ndarray:
        """Every basis monomial at the (m, n) batch ``pts``: a read-only
        (width, m) table, one row per monomial."""
        power = pts.T[:, None, :] ** self.levels[:, None]
        table = np.prod(power[self.index], axis=1)
        table.setflags(write=False)
        return table


@functools.lru_cache(maxsize=64)
def _lowering(n: int, order: int, support: frozenset) -> _Lowering:
    """The ``_Lowering`` of a support, built once per (n, order, support)."""
    return _Lowering(n, order, support)


class _JetPlan:
    """How to evaluate the partials of rank 0..``order`` of the components
    ``comps`` (C order of ``shape``), worked out once from their terms.

    Rank r is (m, n^r, *shape), slot (k_1..k_r, *idx) = d_k1..d_kr
    comps[idx].  Slots differentiate along the sorted multi-index, so
    permuted slots name one polynomial: mixed partials commute and a
    symmetric grid stays symmetric, bit for bit.  Polynomials with equal
    terms share one row of the coefficient matrix, which spans the sorted
    union of their monomials, so they evaluate bit-identically too.

    Planning builds no derivative polynomial.  The components go into one
    dense coefficient block over the closure of their monomials
    (``_Lowering``, shared by every plan over the same support and order),
    and each sorted multi-index's block comes from its parent's by a column
    lowering: the same products, in the same order, as the ``deriv`` chain
    along that multi-index.  Rows are numbered by first occurrence in slot
    order, which for sorted multi-indices in lexicographic order is their
    order in the stacked blocks.

    ``apply`` does the per-batch work: the monomial table of the basis (a
    ``_memo`` entry keyed by ``_Lowering.key``, so inside an evaluation
    context plans over one basis, at any order, share it), one matmul and
    one row gather.  The matmul stays per plan: BLAS may round a product
    differently at another matrix shape, so one matmul over several plans'
    rows would change bits.  Each row is contiguous over the points: the
    jets are views of it, stored points-last.
    """

    __slots__ = ("rows", "coeffs", "lowering", "ranks")

    def __init__(self, n: int, comps, shape: tuple, order: int):
        count = len(comps)
        # (start, stop, block shape) of each rank's rows
        self.ranks, start = [], 0
        for rank in range(order + 1):
            stop = start + n**rank * count
            self.ranks.append((start, stop, (n,) * rank + shape))
            start = stop
        low = self.lowering = _lowering(
            n, order, frozenset().union(*(expr.terms for expr in comps))
        )
        if not low.basis:
            self.rows = np.zeros(start, dtype=int)
            self.coeffs = None
            return
        width = len(low.basis) + 1
        dense = []
        for expr in comps:
            if len(expr.terms) == len(low.basis):  # its terms span the basis
                dense.append([*expr.terms.values(), 0.0])
            else:
                coeffs = [0.0] * width
                for mono, c in expr.terms.items():
                    coeffs[low.column[mono]] = c
                dense.append(coeffs)
        blocks = np.zeros((low.multis, count, width))
        blocks[0] = dense
        comp = np.arange(count)[:, None]
        # an overflow gives inf without a warning, as Python's float product
        # in ``deriv`` does
        with np.errstate(over="ignore"):
            for first, stop, parents, gather, factor in low.steps:
                blocks[first:stop, :, :-1] = blocks[parents, comp, gather] * factor
        # one row per distinct polynomial, in first-occurrence order
        data, size = blocks.tobytes(), width * 8
        seen: dict[bytes, int] = {}
        offsets = [seen.setdefault(data[at:at + size], at) for at in range(0, len(data), size)]
        # first occurrences come in increasing order, so a row's number is
        # the rank of its content's first occurrence
        distinct = np.array(list(seen.values()))
        rows = np.searchsorted(distinct, offsets).reshape(low.multis, count)
        self.rows = rows[low.slots].reshape(-1)
        self.coeffs = blocks.reshape(-1, width)[distinct // size, :-1]

    def apply(self, pts: np.ndarray) -> list:
        """The jets at the (m, n) batch ``pts``, one [p, ...] view per rank."""
        m = pts.shape[0]
        if self.coeffs is None:
            vals = np.zeros((len(self.rows), m))
        else:
            low = self.lowering
            table = _memo("monomials", (), pts, low.key, lambda: low.monomials(pts))
            vals = (self.coeffs @ table)[self.rows]
        return [
            _points_first_view(vals[start:stop].reshape(shape + (m,)))
            for start, stop, shape in self.ranks
        ]


# ---------------------------------------------------------------------------
# Field objects.  Each has .n, .kind and a jet(...) method; all jets are exact.
# ``jet`` goes through ``_field_jet``, and ``_evaluate`` does the work.


def _field_jet(field, pts, order: int):
    """``field._evaluate(pts, order)`` at the validated batch ``pts``: the
    field's jet, computed once per run (``_memo``)."""
    pts = as_points(pts, field.n)
    return _memo("jet", (field,), pts, order, lambda: field._evaluate(pts, order))


class _PlannedField:
    """Jets of the polynomials ``_flat`` (C order of ``_shape``), through one
    ``_JetPlan`` per order, built on first use and kept; the jet itself is
    memoised per run (``_memo``)."""

    def __init__(self, n: int, flat: tuple, shape: tuple):
        self.n = n
        self._flat = flat
        self._shape = shape
        self._plans: dict[int, _JetPlan] = {}

    def _apply(self, pts: np.ndarray, order: int) -> list:
        plan = self._plans.get(order)
        if plan is None:
            plan = self._plans[order] = _JetPlan(self.n, self._flat, self._shape, order)
        return plan.apply(pts)

    def _evaluate(self, pts: np.ndarray, order: int):
        return Jet(*self._apply(pts, order))


class PolynomialScalarField(_PlannedField):
    kind = "scalar"

    def __init__(self, n: int, expr: PolynomialExpr):
        if expr.n != n:
            raise DimensionMismatch("scalar field expr has wrong variable count")
        self.expr = expr
        super().__init__(n, (expr,), ())

    @classmethod
    def constant(cls, n: int, c) -> "PolynomialScalarField":
        return cls(n, PolynomialExpr.constant(n, c))

    @classmethod
    def zero(cls, n: int) -> "PolynomialScalarField":
        return cls(n, PolynomialExpr.zero(n))

    @property
    def is_zero(self) -> bool:
        return self.expr.is_zero

    def jet(self, pts) -> ScalarFieldJet:
        return _field_jet(self, pts, 1)

    def _evaluate(self, pts: np.ndarray, order: int) -> ScalarFieldJet:
        return ScalarFieldJet(*self._apply(pts, order))


class PolynomialOneFormField(_PlannedField):
    kind = "oneform"

    def __init__(self, n: int, comps):
        comps = tuple(comps)
        if len(comps) != n or any(c.n != n for c in comps):
            raise DimensionMismatch("one-form needs n component polynomials in n vars")
        self.comps = comps
        super().__init__(n, comps, (n,))

    @classmethod
    def zero(cls, n: int) -> "PolynomialOneFormField":
        return cls(n, [PolynomialExpr.zero(n) for _ in range(n)])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def jet(self, pts) -> Jet:
        return _field_jet(self, pts, 1)


class PolynomialEndoField(_PlannedField):
    kind = "endo"

    def __init__(self, n: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != n or any(
            len(row) != n or any(e.n != n for e in row) for row in entries
        ):
            raise DimensionMismatch("endomorphism needs an n-by-n grid of polynomials")
        self.entries = entries
        super().__init__(n, tuple(e for row in entries for e in row), (n, n))

    @classmethod
    def zero(cls, n: int) -> "PolynomialEndoField":
        z = [[PolynomialExpr.zero(n) for _ in range(n)] for _ in range(n)]
        return cls(n, z)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self._flat)

    def jet(self, pts) -> Jet:
        return _field_jet(self, pts, 1)


class IdentityEndoField:
    kind = "endo"

    def __init__(self, n: int):
        self.n = n
        self.is_zero = False

    def jet(self, pts) -> Jet:
        return _field_jet(self, pts, 1)

    def _evaluate(self, pts: np.ndarray, order: int) -> Jet:
        m, n = pts.shape[0], self.n
        comp = batch_zeros(m, (n, n))
        comp[:] = np.eye(n)
        return Jet(comp=comp, d1=batch_zeros(m, (n, n, n)))


def _spd_check(comp: np.ndarray):
    """Raise ``MetricNotPositiveDefinite`` at the first point whose metric
    eigenvalues fail lambda_min > ``_SPD_RATIO`` * |lambda_max|.

    A Gershgorin screen (1931) decides first, with no per-matrix LAPACK
    call.  With d_i = a_ii and s_i = sum_{j != i} |a_ij|, every eigenvalue
    lies in [min(d - s), max(d + s)], so a batch whose every point has
    min(d - s) > 2 * ratio * max(d + s) passes the eigenvalue test too; the
    factor 2 covers the rounding of these bounds and of ``eigvalsh``, since
    the ratio is far above n * eps.  Metric comps are exactly symmetric, so
    row sums are column sums.  The screen is evaluated as d_i > R_i / 2 +
    ratio * max(R) over the absolute row sums R_i = |d_i| + s_i: the same
    condition where every d_i > 0, and false where any d_i <= 0, with no
    subtraction that could meet inf - inf.  Any other batch (NaN, inf,
    indefinite, singular, or only not diagonally dominant) takes the
    eigenvalue test, which makes the decision, the point index and the
    message."""
    d = comp.diagonal(0, 1, 2)
    rows = np.abs(comp).sum(axis=-1)
    if np.all(d > 0.5 * rows + _SPD_RATIO * rows.max(axis=-1, keepdims=True)):
        return
    w = np.linalg.eigvalsh(comp)
    bad = w[:, 0] <= _SPD_RATIO * np.abs(w[:, -1])
    if np.any(bad):
        p = int(np.argmax(bad))
        raise MetricNotPositiveDefinite(
            f"metric eigenvalues {w[p].tolist()} fail the SPD check at point index {p}",
            p, w[p].tolist(),
        )


def _spd_inverse(comp: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of a batch that passed ``_spd_check``,
    stored points-last.

    Gauss-Jordan without pivoting, in place on a points-last copy: step k
    turns column k of the matrix into column k of the inverse, and each
    step is a few vectorised operations over the points.  Every pivot of a
    symmetric positive definite matrix is positive and elimination without
    pivoting is stable on one (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 14); on any other matrix the result is unspecified.  A
    diagonal matrix inverts to its correctly rounded reciprocals.  The
    column copy keeps the points last: a points-first one makes the loop
    about three times slower."""
    a = points_last(comp)
    for k in range(comp.shape[-1]):
        col = a[:, :, k, None].copy(order="K")
        a[:, :, k] = 0.0
        a[:, k, k] = 1.0
        a[:, k] /= col[:, k]  # the pivot row; its multiplier is zeroed below
        col[:, k] = 0.0
        a -= col * a[:, None, k]
    return a


def _check_order(order: int):
    if order not in (1, 2, 3):
        raise JetOrderUnsupported(f"metric jet order must be 1, 2 or 3, got {order}")


class ConstantMetricField:
    kind = "metric"

    def __init__(self, n: int, matrix=None):
        self.n = n
        mat = np.eye(n) if matrix is None else np.asarray(matrix, dtype=float)
        if mat.shape != (n, n):
            raise DimensionMismatch(f"constant metric must be {n}x{n}")
        if not np.array_equal(mat, mat.T):
            raise BadParams("constant metric must be symmetric")
        self.matrix = mat

    def jet(self, pts, order: int = 1) -> Jet:
        _check_order(order)
        return _field_jet(self, pts, order)

    def _evaluate(self, pts: np.ndarray, order: int) -> Jet:
        m, n = pts.shape[0], self.n
        comp = batch_zeros(m, (n, n))
        comp[:] = self.matrix
        _spd_check(comp)
        d2 = batch_zeros(m, (n,) * 4) if order >= 2 else None
        d3 = batch_zeros(m, (n,) * 5) if order >= 3 else None
        return Jet(comp=comp, d1=batch_zeros(m, (n, n, n)), d2=d2, d3=d3)


class Sphere2MetricField:
    """Round 2-sphere of radius r in polar coordinates (theta, phi)."""

    kind = "metric"
    n = 2

    def __init__(self, r: float):
        if not r > 0:
            raise BadParams(f"sphere radius must be positive, got {r}")
        self.r = float(r)

    def jet(self, pts, order: int = 1) -> Jet:
        _check_order(order)
        return _field_jet(self, pts, order)

    def _evaluate(self, pts: np.ndarray, order: int) -> Jet:
        m = pts.shape[0]
        theta = pts[:, 0]
        r2 = self.r * self.r
        comp = batch_zeros(m, (2, 2))
        comp[:, 0, 0] = r2
        comp[:, 1, 1] = r2 * np.sin(theta) ** 2
        _spd_check(comp)
        d1 = batch_zeros(m, (2, 2, 2))
        d1[:, 0, 1, 1] = r2 * np.sin(2.0 * theta)
        d2 = d3 = None
        if order >= 2:
            d2 = batch_zeros(m, (2, 2, 2, 2))
            d2[:, 0, 0, 1, 1] = 2.0 * r2 * np.cos(2.0 * theta)
        if order >= 3:
            d3 = batch_zeros(m, (2, 2, 2, 2, 2))
            d3[:, 0, 0, 0, 1, 1] = -4.0 * r2 * np.sin(2.0 * theta)
        return Jet(comp=comp, d1=d1, d2=d2, d3=d3)


class HalfPlaneMetricField:
    """Hyperbolic upper half-plane: g = (k/y)^2 * delta, curvature -1/k^2."""

    kind = "metric"
    n = 2

    def __init__(self, k: float):
        if not k > 0:
            raise BadParams(f"half-plane scale must be positive, got {k}")
        self.k = float(k)

    def jet(self, pts, order: int = 1) -> Jet:
        _check_order(order)
        return _field_jet(self, pts, order)

    def _evaluate(self, pts: np.ndarray, order: int) -> Jet:
        m = pts.shape[0]
        y = pts[:, 1]
        if np.any(y <= 0):
            raise PointOutsideDomain("half-plane metric needs y > 0")
        k2 = self.k * self.k
        f = k2 / y**2
        comp = batch_zeros(m, (2, 2))
        comp[:, 0, 0] = f
        comp[:, 1, 1] = f
        _spd_check(comp)
        d1 = batch_zeros(m, (2, 2, 2))
        d1[:, 1, 0, 0] = d1[:, 1, 1, 1] = -2.0 * k2 / y**3
        d2 = d3 = None
        if order >= 2:
            d2 = batch_zeros(m, (2, 2, 2, 2))
            d2[:, 1, 1, 0, 0] = d2[:, 1, 1, 1, 1] = 6.0 * k2 / y**4
        if order >= 3:
            d3 = batch_zeros(m, (2, 2, 2, 2, 2))
            d3[:, 1, 1, 1, 0, 0] = d3[:, 1, 1, 1, 1, 1] = -24.0 * k2 / y**5
        return Jet(comp=comp, d1=d1, d2=d2, d3=d3)


class PolynomialMetricField(_PlannedField):
    """Symmetric grid of polynomial entries; entries (i, j) and (j, i) share
    one object so all jets are symmetric to the last bit."""

    kind = "metric"

    def __init__(self, n: int, entries):
        grid = [[None] * n for _ in range(n)]
        rows = [list(row) for row in entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatch(f"metric needs an {n}x{n} grid of polynomials")
        for i in range(n):
            for j in range(i, n):
                e = rows[i][j]
                if e.n != n:
                    raise DimensionMismatch("metric entry has wrong variable count")
                if i != j and rows[j][i].terms != e.terms:
                    raise BadParams(f"metric entries ({i},{j}) and ({j},{i}) differ")
                grid[i][j] = grid[j][i] = e
        self.entries = tuple(map(tuple, grid))
        # (i, j) and (j, i) hold one object: only the upper triangle is
        # evaluated, and the lower one mirrors it
        super().__init__(n, tuple(e for row in grid for e in row), (n, n))

    def jet(self, pts, order: int = 1) -> Jet:
        _check_order(order)
        return _field_jet(self, pts, order)

    def _evaluate(self, pts: np.ndarray, order: int) -> Jet:
        jet = Jet(*self._apply(pts, order))
        _spd_check(jet.comp)
        return jet


# ---------------------------------------------------------------------------
# Presets and random fields


@dataclass(frozen=True)
class Manifold:
    name: str
    chart: Chart
    metric: object
    params: dict = field(default_factory=dict)


def random_polynomial(n: int, rng, degree: int = 3, min_degree: int = 0):
    """Dense random polynomial, coefficients uniform in [-1, 1]."""
    return _random_polynomials(n, rng, 1, degree, min_degree)[0]


def _random_polynomials(n: int, rng, count: int, degree: int = 3, min_degree: int = 0):
    """``count`` dense random polynomials from one ``rng.uniform`` draw.  It
    takes the numbers ``count`` calls of ``random_polynomial`` would take,
    in the same order, so it makes the same polynomials."""
    _check_variables(n)
    monos = _monomials(n, degree, min_degree)
    polys = []
    for row in rng.uniform(-1.0, 1.0, size=(count, len(monos))).tolist():
        terms = dict(zip(monos, row))
        if 0.0 in row:  # a zero draw is no term
            terms = {e: c for e, c in terms.items() if c != 0.0}
        polys.append(_canonical(n, terms))
    return polys


def _normalized(expr: PolynomialExpr) -> PolynomialExpr:
    mass = sum(abs(c) for c in expr.terms.values())
    if mass == 0.0:
        return expr
    return _canonical_sums(expr.n, {e: c / mass for e, c in expr.terms.items()})


def _bumpy_metric(n: int, eps: float, seed: int) -> PolynomialMetricField:
    if not eps > 0:
        raise BadParams(f"bumpy eps must be positive, got {eps}")
    if eps * n >= 0.9:
        raise BadParams(
            f"bumpy eps={eps} too large for n={n}: positive-definiteness bound fails"
        )
    rng = np.random.default_rng(seed)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # Unit coefficient mass keeps |perturbation| <= 1 on [-1, 1]^n,
            # so Gershgorin gives lambda_min >= 1 - eps*n > 0.1.
            bump = eps * _normalized(random_polynomial(n, rng, 3, min_degree=1))
            base = PolynomialExpr.constant(n, 1.0) if i == j else PolynomialExpr.zero(n)
            grid[i][j] = grid[j][i] = base + bump
    return PolynomialMetricField(n, grid)


def _int_param(params: dict, key: str, minimum: int, maximum: int | None = None):
    v = params.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < minimum:
        raise BadParams(f"preset parameter {key!r} must be an integer >= {minimum}")
    if maximum is not None and v > maximum:
        raise BadParams(f"preset parameter {key!r} must be at most {maximum}")
    return int(v)


def _float_param(params: dict, key: str, default: float) -> float:
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not _is_finite(v):
        raise BadParams(f"preset parameter {key!r} must be a finite number")
    return float(v)


def preset_manifold(name: str, params: dict | None = None) -> Manifold:
    """Build one of the stock manifolds.

    euclidean(n): flat delta metric on [-1.5, 1.5]^n.
    sphere2(r): round sphere, (theta, phi) in [0.3, pi-0.3] x [0, 2 pi].
    half_plane(k): g = (k/y)^2 delta on [-2, 2] x [0.5, 5].
    bumpy(n, eps, seed): delta plus a seeded random polynomial perturbation
    on [-1, 1]^n, positive-definite by construction.
    """
    params = dict(params or {})

    def take(allowed: set):
        extra = set(params) - allowed
        if extra:
            raise BadParams(f"preset {name!r} got unknown parameters {sorted(extra)}")

    if name == "euclidean":
        take({"n"})
        n = _int_param(params, "n", 2, _MAX_DIMENSION)
        chart = Chart(n, [-1.5] * n, [1.5] * n)
        return Manifold(name, chart, ConstantMetricField(n), {"n": n})
    if name == "sphere2":
        take({"r"})
        r = _float_param(params, "r", 1.0)
        chart = Chart(2, [0.3, 0.0], [np.pi - 0.3, 2.0 * np.pi])
        return Manifold(name, chart, Sphere2MetricField(r), {"r": r})
    if name == "half_plane":
        take({"k"})
        k = _float_param(params, "k", 1.0)
        chart = Chart(2, [-2.0, 0.5], [2.0, 5.0])
        return Manifold(name, chart, HalfPlaneMetricField(k), {"k": k})
    if name == "bumpy":
        take({"n", "eps", "seed"})
        n = _int_param(params, "n", 2, _MAX_DIMENSION)
        eps = _float_param(params, "eps", 0.05)
        seed = _int_param({"seed": params.get("seed", None)}, "seed", 0)
        chart = Chart(n, [-1.0] * n, [1.0] * n)
        metric = _bumpy_metric(n, eps, seed)
        return Manifold(name, chart, metric, {"n": n, "eps": eps, "seed": seed})
    raise UnknownPreset(f"no manifold preset named {name!r}")


def evaluate_jets(chart: Chart, metric, bindings: dict, p, metric_order: int = 1):
    """Validate points against the chart and evaluate the metric plus every
    bound field there.  Fields that need geometry (derived endomorphisms)
    cannot be evaluated here; resolve those through the connection layer."""
    pts = chart.require_inside(p)
    for name, f in bindings.items():
        if getattr(f, "n", None) != chart.n:
            raise DimensionMismatch(
                f"field {name!r} has dimension {getattr(f, 'n', None)}, chart has {chart.n}"
            )
        if not hasattr(f, "jet"):
            raise BadParams(
                f"field {name!r} needs geometry to evaluate; use the connection layer"
            )
    if getattr(metric, "n", None) != chart.n:
        raise DimensionMismatch("metric dimension does not match the chart")
    with _evaluation_context():
        mj = metric.jet(pts, order=metric_order)
        jets = {name: f.jet(pts) for name, f in bindings.items()}
    return PointJets(points=pts, metric=mj, fields=jets)
