"""Exception types shared across the package."""


class CircMaxentError(Exception):
    """Base class for all package errors."""


class BadInput(CircMaxentError):
    """Malformed or out-of-range problem data."""


class NotPositiveDefinite(CircMaxentError):
    """A matrix required to be positive definite failed factorization."""


class BandTooWide(BadInput):
    """The band and its circulant mirror overlap: N < 2n + 2 (``blockcirc._check_sizes``)."""


class Unstable(CircMaxentError):
    """State matrix has spectral radius >= 1."""


class NoConvergence(CircMaxentError):
    """Iteration budget exhausted before the stopping rule was met."""


class RequiresFullR(CircMaxentError):
    """No positive definite starting completion is available from the band."""
