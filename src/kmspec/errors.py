"""Exception hierarchy shared by all kmspec modules."""


class KmspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(KmspecError):
    """A value violates a documented precondition (non-finite beta, bad weights, ...)."""


class UnsupportedGeneratorError(KmspecError):
    """A generator refers to coordinates outside the current truncation."""


class FitFailureError(KmspecError):
    """No fit configuration produced a candidate."""


class ConvergenceError(KmspecError):
    """A truncated sum has not settled within the declared ball."""


class RealizationError(KmspecError):
    """A target could not be realized by a block or by a staged build."""


class ConstructionError(KmspecError):
    """No admissible parameter was found below the overflow ceiling."""


class EnumerationError(KmspecError):
    """An exhaustive enumeration exceeded its size cap."""


class DomainError(KmspecError):
    """The input is outside the regime of validity of the operation."""


class WindowError(KmspecError):
    """The truncation window is too small for the requested operation."""
