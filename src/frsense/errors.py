"""Exception types raised across the package.

Everything derives from :class:`FrsenseError` so callers can catch one base
class at pipeline boundaries.  Errors that signal bad user input additionally
derive from ``ValueError``.
"""

from __future__ import annotations

__all__ = [
    "FrsenseError",
    "GridMismatchError",
    "AllZeroError",
    "NegativeValueError",
    "BaseMismatchError",
    "AntipodalOrBoundaryError",
    "EmptyInputError",
    "InsufficientSamplesError",
    "DegenerateSampleError",
    "EmptyDatasetError",
    "TruncationTooSmallError",
    "InvalidSettingError",
    "InvalidPhiError",
    "UnknownModelError",
    "UnknownParameterError",
    "InsufficientValuesError",
    "ConfigError",
    "ParseError",
    "NonPositiveForLogError",
]


class FrsenseError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(FrsenseError, ValueError):
    """Two grid functions that must share a grid do not."""


class AllZeroError(FrsenseError, ValueError):
    """A raw density is identically zero and cannot be normalized."""


class NegativeValueError(FrsenseError, ValueError):
    """A raw density carries a negative value."""


class BaseMismatchError(FrsenseError, ValueError):
    """A TangentVector's values are not orthogonal to its base point.

    Raised by the tangency check of ``TangentVector``, so a vector anchored
    at one SRD is refused at another unless it is tangent there too.
    """


class AntipodalOrBoundaryError(FrsenseError, ValueError):
    """Points too far apart on the sphere for a well-defined log map."""


class EmptyInputError(FrsenseError, ValueError):
    """An operation received an empty collection."""


class InsufficientSamplesError(FrsenseError, ValueError):
    """Too few draws for the requested computation."""


class DegenerateSampleError(FrsenseError, ValueError):
    """A posterior sample has (numerically) zero spread."""


class EmptyDatasetError(FrsenseError, ValueError):
    """A dataset with no observations."""


class TruncationTooSmallError(FrsenseError, ValueError):
    """Stick-breaking truncation left unassigned mass after absorption."""


class InvalidSettingError(FrsenseError, ValueError):
    """A model hyperparameter or chain control lies outside its domain."""


class InvalidPhiError(InvalidSettingError):
    """The component-variance shape parameter must exceed 1."""


class UnknownModelError(FrsenseError, ValueError):
    """Model tag not one of dp, dpgmm, ccv, dcv."""


class UnknownParameterError(FrsenseError, ValueError):
    """Sweep parameter does not name a scalar field of the model config."""


class InsufficientValuesError(FrsenseError, ValueError):
    """Too few values for a band or a sweep grid."""


class ConfigError(FrsenseError, ValueError):
    """Experiment configuration, or the data it names, failed validation.

    ``code`` is a stable machine-readable identifier (for example
    ``CONFIG_BAD_PARAM``, or ``DATA_NONFINITE`` for observations outside
    double precision) surfaced by the command line interface.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # pickle's default rebuilds an exception as cls(*args), which does not
        # fit this signature; a sweep's worker processes send errors back
        # pickled.  args[0] is the message, with any annotation added to it.
        return type(self), (self.code, self.args[0]), self.__dict__


class ParseError(FrsenseError, ValueError):
    """A data file failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.message = message
        self.line_number = line_number

    def __reduce__(self):
        # As ConfigError; the state also restores args, which already carry
        # the line prefix and any annotation.
        state = {**self.__dict__, "args": self.args}
        return type(self), (self.message, self.line_number), state


class NonPositiveForLogError(FrsenseError, ValueError):
    """A log transform was requested for data with values <= 0."""
