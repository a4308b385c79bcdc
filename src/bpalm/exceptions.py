"""Exception hierarchy shared across the solver library."""


class BpalmError(Exception):
    """Base class for all library errors."""


class DomainError(BpalmError):
    """A point violates the (interior of the) domain required by an operation."""


class DimensionError(BpalmError):
    """Inconsistent or out-of-range dimensions."""


class UnsupportedError(BpalmError):
    """The requested evaluation is not available for this problem variant."""


class FactorizationError(BpalmError):
    """A symmetric positive-definite factorization failed."""


class InvalidRegimeError(BpalmError):
    """The requested complexity regime is unknown or does not cover the problem."""


class BisectionFailedError(BpalmError):
    """No admissible step size was found by backtracking."""


class SingularSystemError(BpalmError):
    """A reference KKT system is singular."""


class ScaleError(BpalmError):
    """Problem size exceeds what a brute-force oracle can handle."""


class InsufficientTraceError(BpalmError):
    """A diagnostic needs more recorded iterations than are available."""


class ParseError(BpalmError):
    """A problem file is malformed; the message carries field context."""
