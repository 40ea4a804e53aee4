"""Exception hierarchy.

Construction-time invariant violations (bad shapes, non-normalized
distributions, malformed files) raise ``ValueError``; these correspond to bad
input.  Failures of a well-posed computation (infeasible moment targets,
biased estimators, boundary hits) raise :class:`InfoGeoError` subclasses so
callers can tell the two apart.
"""


class InfoGeoError(Exception):
    """Base class for domain-level failures of otherwise valid input."""


class ConvergenceError(InfoGeoError):
    """An iterative solver stopped without meeting its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class FeasibilityError(ConvergenceError):
    """A moment target lies outside (or on the boundary of) the feasible set.

    Raised by the dual-Newton moment-matching solver when it stops without
    converging while some canonical coordinate exceeds 10 in absolute value;
    ``residual`` is the max-norm mean residual where it stopped.
    """


class BiasedEstimatorError(InfoGeoError):
    """An estimator failed the unbiasedness precondition."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class BoundaryError(InfoGeoError):
    """A state left the faithful interior where the geometry is defined."""
