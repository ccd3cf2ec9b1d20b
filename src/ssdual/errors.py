"""Exception types shared across the package."""


class SSDError(Exception):
    """Base class for all errors raised by this package."""


class BadParameters(SSDError):
    """Inputs violate a documented precondition."""


class CycleDetected(SSDError):
    """Cover relation contains a directed cycle."""


class SizeOverflow(SSDError):
    """State space exceeds the configured cap."""


class TooLarge(SizeOverflow):
    """Model state space exceeds the configured cap."""


class DimensionMismatch(SSDError):
    """Matrix or vector shapes do not line up."""


class NotIrreducible(SSDError):
    """Chain is not irreducible."""


class SingularSystem(SSDError):
    """A dense linear solve failed or left a large residual."""


class MissingStationary(SSDError):
    """Operation needs a stationary distribution that is not available."""


class NotReversible(SSDError):
    """Chain fails detailed balance beyond tolerance."""


class MonotonicityViolated(SSDError):
    """Mobius monotonicity precondition fails; carries the failing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotRowStochastic(SSDError):
    """Constructed kernel rows do not sum to one within tolerance."""


class NoUniqueMax(SSDError):
    """Poset lacks the unique maximal state the construction requires."""


class NoAbsorbingState(SSDError):
    """Dual chain has no usable absorbing state."""


class BadProbability(SSDError):
    """Probability parameter outside (0, 1]."""


class NotTriangular(SSDError):
    """Kernel moves down a level, so it is not block upper triangular by level."""


class MaxStepsExceeded(SSDError):
    """Simulated trajectory ran past the step cap without absorbing."""


class ParseError(SSDError):
    """Chain file is malformed."""


class SchemaVersionMismatch(ParseError):
    """Chain file uses an unsupported format version."""
