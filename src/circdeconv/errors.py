"""Semantic exception hierarchy for circdeconv."""

__all__ = [
    "CircdeconvError",
    "InvalidDensityError",
    "CertificationError",
    "DimensionNotFound",
    "ClassNotSummable",
    "ConditionViolation",
    "CalibrationError",
    "IngestError",
]


class CircdeconvError(Exception):
    """Base class for all circdeconv errors."""


class InvalidDensityError(CircdeconvError):
    """Coefficient vector does not describe a valid density representation."""


class CertificationError(CircdeconvError):
    """Operation requires a density certified nonnegative, but the
    l1 certificate (sum of non-zero-frequency moduli <= 1) does not hold."""


class DimensionNotFound(CircdeconvError):
    """No truncation level k <= k_max satisfies the bias-variance crossing;
    the search window is too small for this sample size."""


class ClassNotSummable(CircdeconvError):
    """The squared smoothness sequence is not summable on the configured
    truncation, so hypercube hypotheses cannot be certified as densities."""


class ConditionViolation(CircdeconvError):
    """A lower-bound construction failed one of its defining inequalities.

    Attributes
    ----------
    condition : str
        Short label of the violated condition, e.g. "(d) positive".
    """

    def __init__(self, condition, message):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class CalibrationError(CircdeconvError):
    """Test calibration constants fail their defining inequalities."""


class IngestError(CircdeconvError):
    """Circular data file could not be ingested."""
