"""Strictly positive distributions on a finite sample space and their tangents.

A tangent direction at a distribution rho comes in two interchangeable
pictures: the mixture picture (a zero-sum signed measure v, the difference of
nearby states) and the exponential picture (a score x with zero rho-mean, the
derivative of the log density).  The pictures are linked pointwise by
v = rho * x, and the Fisher metric is the rho-weighted covariance of scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BoundaryError
from ..spectral import _known, _refuse, _vector

#: Distributions with a cell below this are rejected unless an operation
#: documents a boundary override; scores and log densities blow up there.
FAITHFULNESS_FLOOR = 1e-14

_NORMALIZATION_TOL = 1e-12
_ZERO_SUM_TOL = 1e-12

MIXTURE = "mixture"
EXPONENTIAL = "exponential"


def check_probabilities(p, allow_boundary: bool = False) -> np.ndarray:
    """Validate a probability vector, or a stack of them (..., n).

    Entries must be finite and nonnegative and each vector must sum to 1 (to
    1e-12), else ValueError; without ``allow_boundary`` a cell at or below
    :data:`FAITHFULNESS_FLOOR` raises :class:`BoundaryError`.  In a stack the
    message names the index of the worst vector.  Returns ``p`` as floats.
    """
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    _refuse(p < 0, lambda: -p.min(axis=-1),
            lambda i: f"negative probability {float(p[i].min())!r}")
    error = abs(p.sum(axis=-1) - 1.0)
    _refuse(error > _NORMALIZATION_TOL, error,
            lambda i: f"probabilities sum to {float(p[i].sum())!r}, not 1")
    if not allow_boundary:
        lo = p.min(axis=-1)
        _refuse(lo <= FAITHFULNESS_FLOOR, lambda: -lo, lambda i: (
            f"distribution is not faithful: min probability {float(lo[i])!r} <= "
            f"{FAITHFULNESS_FLOOR}; pass allow_boundary=True where the operation "
            f"supports it"
        ), BoundaryError)
    return p


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector over a finite sample space, faithful by default.

    Parameters
    ----------
    probs : array_like
        Nonnegative weights summing to 1 (to 1e-12).
    allow_boundary : bool
        Permit cells at (or below) the faithfulness floor.  Only operations
        that extend continuously to the boundary (entropy, sampling) accept
        such states.
    """

    probs: np.ndarray
    allow_boundary: bool = False

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError(f"probability vector must be 1-d, got shape {p.shape}")
        p = check_probabilities(p, self.allow_boundary).copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def _wrap(cls, p: np.ndarray) -> "FiniteDistribution":
        """A faithful distribution around a fresh 1-d vector ``p`` that its
        caller has already checked as :func:`check_probabilities` would;
        ``p`` is frozen in place, not copied."""
        rho = object.__new__(cls)
        p.setflags(write=False)
        object.__setattr__(rho, "probs", p)
        object.__setattr__(rho, "allow_boundary", False)
        return rho

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    def is_faithful(self) -> bool:
        return bool(self.probs.min() > FAITHFULNESS_FLOOR)


def uniform(n: int) -> FiniteDistribution:
    """Uniform distribution on n points."""
    return FiniteDistribution(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class ClassicalTangent:
    """Tangent vector in the mixture or exponential representation.

    Mixture vectors are validated to be zero-sum here; the score condition
    (zero mean) involves a base state and is enforced by the operations that
    receive one.
    """

    rep: str
    vec: np.ndarray

    def __post_init__(self):
        _known((MIXTURE, EXPONENTIAL), self.rep, "representation")
        v = _vector(self.vec, np.size(self.vec), "tangent vector")
        if self.rep == MIXTURE and abs(v.sum()) > _ZERO_SUM_TOL * max(
            1.0, np.abs(v).max()
        ):
            total = float(v.sum())
            raise ValueError(f"mixture tangent must be zero-sum, sum={total!r}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def size(self) -> int:
        return self.vec.shape[0]


def mixture_tangent(vec) -> ClassicalTangent:
    return ClassicalTangent(MIXTURE, vec)


def score_tangent(vec) -> ClassicalTangent:
    return ClassicalTangent(EXPONENTIAL, vec)


def _check_size(rho: FiniteDistribution, t: ClassicalTangent):
    if t.size != rho.size:
        raise ValueError(
            f"tangent on {t.size} points does not match sample space of "
            f"size {rho.size}"
        )


def tangent_convert(
    rho: FiniteDistribution, t: ClassicalTangent, target_rep: str
) -> ClassicalTangent:
    """Convert a tangent between representations at the base state rho.

    mixture -> score divides by rho and recenters to zero rho-mean; score ->
    mixture multiplies by rho and removes any residual total mass.  The two
    maps are mutually inverse, and the pairing sum(v * x) is representation
    independent.
    """
    _check_size(rho, t)
    _known((MIXTURE, EXPONENTIAL), target_rep, "representation")
    if t.rep == target_rep:
        return t
    p = rho.probs
    if t.rep == MIXTURE:
        x = t.vec / p
        x = x - p @ x
        return ClassicalTangent(EXPONENTIAL, x)
    v = p * t.vec
    v = v - v.sum() / len(v)
    return ClassicalTangent(MIXTURE, v)


def as_score(rho: FiniteDistribution, t: ClassicalTangent) -> np.ndarray:
    """Score vector of a tangent at rho, recentered to exact zero mean."""
    x = tangent_convert(rho, t, EXPONENTIAL).vec
    return x - rho.probs @ x


def fisher_metric(
    rho: FiniteDistribution, x: ClassicalTangent, y: ClassicalTangent
) -> float:
    """Fisher-Rao inner product at rho: the rho-expectation of the two scores.

    Symmetric, bilinear, and positive definite on nonzero scores of a
    faithful state.
    """
    xs = as_score(rho, x)
    ys = as_score(rho, y)
    return float(np.sum(rho.probs * xs * ys))


def entropy(rho) -> float:
    """Shannon entropy -sum p log p, with 0 log 0 = 0 at the boundary."""
    p = rho.probs if isinstance(rho, FiniteDistribution) else np.asarray(rho, float)
    mask = p > 0
    if not mask.all():
        p = p[mask]
    return float(-(p * np.log(p)).sum())


def alpha_embed(rho: FiniteDistribution, alpha: float) -> np.ndarray:
    """Coordinates w -> rho(w)^p with p = (1 - alpha)/2.

    At alpha = 0 this is the square-root embedding onto the unit sphere.
    alpha = 1 is rejected: the exponent degenerates to 0 and the chart
    collapses; use score coordinates there instead.
    """
    if alpha == 1.0:
        raise ValueError(
            "alpha=1 embedding degenerates (exponent 0); use scores instead"
        )
    p = 0.5 * (1.0 - alpha)
    return rho.probs**p


def hellinger_distance(rho: FiniteDistribution, sigma: FiniteDistribution) -> float:
    """Euclidean distance between the square-root density vectors."""
    if rho.size != sigma.size:
        raise ValueError("distributions live on different sample spaces")
    return float(np.linalg.norm(np.sqrt(rho.probs) - np.sqrt(sigma.probs)))


def bhattacharyya_angle(rho: FiniteDistribution, sigma: FiniteDistribution) -> float:
    """Great-circle distance between the square-root vectors on the sphere.

    The chordal counterpart is :func:`hellinger_distance`; both are exposed
    and neither is privileged.
    """
    if rho.size != sigma.size:
        raise ValueError("distributions live on different sample spaces")
    c = float(np.sqrt(rho.probs * sigma.probs).sum())
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def parallel_transport(
    rho: FiniteDistribution,
    sigma: FiniteDistribution,
    t: ClassicalTangent,
    which: str,
) -> ClassicalTangent:
    """Flat transport of a tangent from rho to sigma.

    ``which='minus'`` transports in the mixture picture: the zero-sum vector
    is unchanged.  ``which='plus'`` transports in the score picture: the
    function is unchanged up to recentering to zero sigma-mean.  Both are
    path independent, and they are dual with respect to the Fisher pairing:
    the sigma-pairing of a plus-transported score with a minus-transported
    mixture vector equals the rho-pairing of the originals.
    """
    if rho.size != sigma.size:
        raise ValueError("transport endpoints live on different sample spaces")
    _check_size(rho, t)
    _known(("minus", "plus"), which, "transport")
    if which == "minus":
        v = tangent_convert(rho, t, MIXTURE).vec
        return ClassicalTangent(MIXTURE, v)
    x = as_score(rho, t)
    return ClassicalTangent(EXPONENTIAL, x - sigma.probs @ x)
