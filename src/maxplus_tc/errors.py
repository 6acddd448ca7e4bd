"""Exception hierarchy for traffic-model operations."""


class TrafficModelError(Exception):
    """Base class for domain errors raised by this package."""


class MissingLengthsError(TrafficModelError):
    """An operation needed per-packet bit lengths but the trace has none."""


class InconsistentInputError(TrafficModelError):
    """Inputs disagree with each other (mixed length presence, bad bounds)."""


class InfeasibleFitError(TrafficModelError):
    """No parameter value can make the model conform to the trace.

    Carries the offending packet pair as ``pair`` when one exists.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class UnboundedFitError(TrafficModelError):
    """No packet pair constrains the requested parameter, so there is no
    tightest value (any positive value conforms)."""


class DegenerateCurveError(TrafficModelError):
    """An arrival curve is identically zero past the origin, so no finite
    rate bounds it."""


class FormatError(TrafficModelError):
    """A file or JSON document does not match the documented wire format."""
