"""Exception types raised across the package.

Everything derives from :class:`AffconnError` so callers can catch one base
class.  The CLI maps config-shaped failures (schema, dimensions, unknown
names) to exit code 2 and residual failures to exit code 1.
"""


class AffconnError(Exception):
    """Base class for all library errors."""


class SchemaError(AffconnError):
    """A config document does not match the expected schema.

    The message is path-addressed, e.g. ``connection.case: unknown id '99'``.
    """


class DimensionMismatch(AffconnError):
    """Array or field dimension does not match the chart dimension."""


class PointOutsideDomain(AffconnError):
    """A point to evaluate lies outside the chart's box domain."""


class MetricNotPositiveDefinite(AffconnError):
    """Metric failed the SPD check at an evaluated point: ``point`` is its
    index in the evaluated batch, ``eigenvalues`` the metric's there (None
    where the raiser did not give them)."""

    def __init__(self, message: str, point: int | None = None,
                 eigenvalues: list | None = None):
        super().__init__(message)
        self.point = point
        self.eigenvalues = eigenvalues


class JetOrderUnsupported(AffconnError):
    """A computation needs higher derivative jets than were requested."""


class UnknownPreset(AffconnError):
    """No manifold preset registered under that name."""


class BadParams(AffconnError):
    """Preset or field parameters are invalid (wrong sign, range, type)."""


class MissingBinding(AffconnError):
    """A case requires a field binding that was not supplied."""


class ExtraBinding(AffconnError):
    """A binding was supplied that the case does not accept."""


class CaseUnknown(AffconnError):
    """No connection case registered under that id."""
