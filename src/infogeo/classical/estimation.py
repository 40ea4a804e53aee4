"""Estimators, Fisher information, the Cramer-Rao bound, and max-entropy fits.

A parametric family is a differentiable map theta -> distribution.  For
exponential families the score vectors are available in closed form in both
the canonical and the mixture parametrization; arbitrary user-supplied maps
fall back to central finite differences of the log density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import BiasedEstimatorError
from ..spectral import _count, _known, _vector, check_finite
from .distributions import FiniteDistribution
from .families import CanonicalPoint, ExponentialFamily, _moments, fit_mixture_coords

CANONICAL = "canonical"
MIXTURE_COORDS = "mixture"

_FD_STEP = 1e-5
_JACOBIAN_ZERO_SUM_TOL = 1e-8
_UNBIASED_TOL = 1e-6


@dataclass(frozen=True)
class ParametricFamily:
    """Map from an n-dimensional parameter to distributions on Omega.

    Build one with :meth:`from_exponential` (exact scores) or
    :meth:`from_map` (finite-difference scores).  Scores are taken at a
    state already in hand, so each parameter point is evaluated once.
    """

    param_dim: int
    omega_size: int
    _map: Callable[[np.ndarray], FiniteDistribution]
    _scores: Callable[[np.ndarray], np.ndarray] | None = None

    @staticmethod
    def from_exponential(
        family: ExponentialFamily, parametrization: str = CANONICAL
    ) -> "ParametricFamily":
        """Wrap an exponential family, parametrized by xi or by the means.

        Scores are exact, read from the state's probabilities: -(f_j - eta_j)
        in canonical coordinates, and the covariance-inverse contraction of the
        same centered features in mixture coordinates.
        """
        _known((CANONICAL, MIXTURE_COORDS), parametrization, "parametrization")
        if parametrization == CANONICAL:

            def dist(theta):
                return CanonicalPoint(family, theta).distribution()

            def scores(p):
                return -_moments(family.features, p)[1]

        else:

            def dist(theta):
                return fit_mixture_coords(family, theta).distribution()

            def scores(p):
                _, centered, cov = _moments(family.features, p)
                # d log rho / d eta = V^{-1} (f - eta)
                return np.linalg.solve(cov, centered)

        return ParametricFamily(
            family.n_features, family.omega_size, dist, scores
        )

    @staticmethod
    def from_map(
        fn: Callable[[np.ndarray], FiniteDistribution],
        param_dim: int,
        omega_size: int,
    ) -> "ParametricFamily":
        """Wrap a user-supplied map; scores come from central differences."""
        return ParametricFamily(param_dim, omega_size, fn)

    def distribution(self, theta) -> FiniteDistribution:
        theta = _vector(theta, self.param_dim, "theta")
        rho = self._map(theta)
        if rho.size != self.omega_size:
            raise ValueError(
                f"family map returned {rho.size} points, expected {self.omega_size}"
            )
        return rho

    def scores(self, theta) -> np.ndarray:
        """Score vectors d log rho/d theta_j as rows, zero mean under rho."""
        theta = _vector(theta, self.param_dim, "theta")
        return self._scores_at(theta, self.distribution(theta))

    def _scores_at(self, theta: np.ndarray, rho: FiniteDistribution) -> np.ndarray:
        """The scores at a checked theta whose state rho is already in hand."""
        if self._scores is not None:
            return self._scores(rho.probs)
        out = np.zeros((self.param_dim, self.omega_size))
        for j in range(self.param_dim):
            h = _FD_STEP * max(1.0, abs(theta[j]))
            e = np.zeros_like(theta)
            e[j] = h
            hi = self.distribution(theta + e).probs
            lo = self.distribution(theta - e).probs
            dp = (hi - lo) / (2 * h)
            if abs(dp.sum()) > _JACOBIAN_ZERO_SUM_TOL:
                raise ValueError(
                    f"family does not conserve probability: Jacobian column "
                    f"{j} sums to {float(dp.sum())!r}"
                )
            out[j] = dp / rho.probs
        return out


def fisher_information_matrix(fam: ParametricFamily, theta) -> np.ndarray:
    """Fisher information G_ij = E[score_i score_j] at theta.

    Symmetric positive semidefinite; raises with a diagnostic when the state
    sits too close to the boundary for the scores to be reliable.
    """
    theta = _vector(theta, fam.param_dim, "theta")
    return _information(fam, theta, fam.distribution(theta))


def _information(fam: ParametricFamily, theta, rho) -> np.ndarray:
    """The Fisher information at theta from its state rho, which must be faithful."""
    if not rho.is_faithful():
        raise ValueError(
            f"state at theta has min probability {float(rho.probs.min())!r}; "
            f"Fisher information is singular at the boundary"
        )
    return _moments(fam._scores_at(theta, rho), rho.probs)[2]


def _check_estimators(fam: ParametricFamily, estimators) -> np.ndarray:
    """The estimators as rows, one per parameter, on the family's points."""
    est = np.atleast_2d(np.asarray(estimators, dtype=float))
    if est.shape[1] != fam.omega_size:
        raise ValueError(
            f"estimators defined on {est.shape[1]} points, expected {fam.omega_size}"
        )
    if est.shape[0] != fam.param_dim:
        raise ValueError(
            f"{est.shape[0]} estimators for {fam.param_dim} parameters"
        )
    check_finite(est, "estimators must be finite")
    return est


def check_unbiased(fam: ParametricFamily, theta, estimators) -> np.ndarray:
    """Residual E_theta[f_i] - theta_i per estimator."""
    theta = np.asarray(theta, dtype=float)
    est = _check_estimators(fam, estimators)
    return est @ fam.distribution(theta).probs - theta


@dataclass(frozen=True)
class CramerRaoReport:
    """Covariance V, information G, and the gap V - G^{-1}.

    ``efficiency`` is the scalar ratio G^{-1}/V, reported only in the
    one-parameter case (1.0 means the bound is met).
    """

    covariance: np.ndarray
    information: np.ndarray
    gap: np.ndarray
    min_gap_eigenvalue: float
    efficiency: float | None


def cramer_rao_report(fam: ParametricFamily, theta, estimators) -> CramerRaoReport:
    """Variance bound report for unbiased estimators at theta.

    Precondition: the estimators are unbiased at theta to 1e-6, otherwise a
    :class:`BiasedEstimatorError` carrying the residual is raised.  The gap
    V - G^{-1} is positive semidefinite for (locally) unbiased estimators
    and vanishes exactly on exponential families estimated by their own
    features in mixture coordinates.  The state at theta is evaluated once.
    """
    theta = np.asarray(theta, dtype=float)
    est = _check_estimators(fam, estimators)
    rho = fam.distribution(theta)
    mean, _, v = _moments(est, rho.probs)
    resid = mean - theta
    if np.abs(resid).max() > _UNBIASED_TOL:
        raise BiasedEstimatorError(
            f"estimators biased at theta: max residual {np.abs(resid).max():.3e}",
            residual=resid,
        )
    g = _information(fam, theta, rho)
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular Fisher information matrix") from exc
    gap = v - g_inv
    min_eig = float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min())
    eff = float(g_inv[0, 0] / v[0, 0]) if fam.param_dim == 1 else None
    return CramerRaoReport(v, g, gap, min_eig, eff)


def maxent_fit(
    family: ExponentialFamily, target_means, tol: float = 1e-10
) -> CanonicalPoint:
    """Maximum-entropy member of the family with the given feature means.

    The convex dual is solved by :func:`.families.fit_mixture_coords`; the
    returned point reproduces the targets to ``tol`` in the max norm.
    Targets outside (or on the boundary of) the moment polytope make the
    canonical coordinates diverge, which the solver raises as
    :class:`FeasibilityError` naming the escaping coordinate and its target.
    """
    return fit_mixture_coords(family, target_means, tol=tol)


def sample(rho: FiniteDistribution, m: int, seed) -> np.ndarray:
    """Histogram of m independent draws from rho; deterministic given seed."""
    _count(m, "m", 1)
    rng = np.random.default_rng(seed)
    return rng.multinomial(m, rho.probs / rho.probs.sum())


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Empirical distribution of a histogram, with smoothing metadata.

    Zero cells are only admissible after additive smoothing; when applied,
    ``smoothing_epsilon`` records the per-cell probability mass added before
    renormalization (1/(m * omega)), and the distribution carries the
    boundary override.  Histograms without empty cells are returned exactly.
    """

    distribution: FiniteDistribution
    counts: np.ndarray
    smoothing_epsilon: float | None


def _check_histogram(hist):
    """The counts as a float array and their total; they must form a 1-d
    vector of finite nonnegative numbers with a positive sum."""
    h = np.asarray(hist, dtype=float)
    if h.ndim != 1 or not np.isfinite(h).all() or np.any(h < 0):
        raise ValueError("histogram must be a 1-d finite nonnegative vector")
    m = h.sum()
    if m <= 0:
        raise ValueError("histogram is empty")
    return h, m


def empirical_distribution(hist) -> EmpiricalDistribution:
    h, m = _check_histogram(hist)
    if h.min() > 0:
        return EmpiricalDistribution(FiniteDistribution(h / m), h, None)
    eps = 1.0 / (m * h.size)
    probs = (h / m + eps) / (1.0 + h.size * eps)
    return EmpiricalDistribution(
        FiniteDistribution(probs, allow_boundary=True), h, eps
    )


def estimate_from_data(family: ExponentialFamily, hist) -> CanonicalPoint:
    """Moment-matching projection of a data histogram onto the family.

    Fits the max-entropy member whose feature means equal the empirical
    feature means of the raw histogram.
    """
    h, m = _check_histogram(hist)
    h = _vector(h, family.omega_size, "histogram")
    return maxent_fit(family, family.features @ (h / m))
