"""Exception types shared across the package.

Two families matter for callers: ``ValidationError`` (bad input or an unmet
precondition) and ``NumericalError`` (a numerical procedure gave up).  The
CLI maps them to exit codes 1 and 2, respectively.
"""


class HeunSu11Error(Exception):
    """Base class for all library errors."""


class ValidationError(HeunSu11Error):
    """Invalid input or unmet precondition."""


class NumericalError(HeunSu11Error):
    """A numerical procedure failed."""


class DegenerateSingularity(ValidationError):
    """The singularity location coincides with 0 or 1."""


class FuchsianViolation(ValidationError):
    """Supplied exponent parameters break the exponent-sum constraint."""


class ComplexExponents(ValidationError):
    """Requested exponent pair has no real solutions."""


class NotFactorizable(ValidationError):
    """Operator does not meet the elementary-singularity conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InconsistentCoefficients(ValidationError):
    """Coefficient cross-check failed during decomposition."""

    def __init__(self, message, deviation=None):
        super().__init__(message)
        self.deviation = deviation


class UnsupportedClass(ValidationError):
    """Operation not available for this representation class."""


class GridTooLarge(ValidationError):
    """Requested subspace exceeds the configured matrix size cap."""


class OutOfDomain(ValidationError):
    """Evaluation point lies outside the solution's validity interval."""


class SamplePointAtSingularity(ValidationError):
    """A sample point sits on or too close to a singular point."""


class EigensolverNoConvergence(NumericalError):
    """Underlying eigensolver hit its iteration cap."""


class RecurrenceBreakdown(NumericalError):
    """Leading divisor of the three-term recurrence vanished."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class UsageError(HeunSu11Error):
    """Malformed command line; CLI exits 64."""
