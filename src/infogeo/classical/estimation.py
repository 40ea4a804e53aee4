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
from .distributions import FiniteDistribution
from .families import (
    CanonicalPoint,
    ExponentialFamily,
    covariance,
    fit_mixture_coords,
    mixture_coords,
)

CANONICAL = "canonical"
MIXTURE_COORDS = "mixture"

_FD_STEP = 1e-5
_JACOBIAN_ZERO_SUM_TOL = 1e-8
_UNBIASED_TOL = 1e-6


@dataclass(frozen=True)
class ParametricFamily:
    """Map from an n-dimensional parameter to distributions on Omega.

    Build one with :meth:`from_exponential` (exact scores) or
    :meth:`from_map` (finite-difference scores).
    """

    param_dim: int
    omega_size: int
    _map: Callable[[np.ndarray], FiniteDistribution]
    _scores: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = _FD_STEP

    @staticmethod
    def from_exponential(
        family: ExponentialFamily, parametrization: str = CANONICAL
    ) -> "ParametricFamily":
        """Wrap an exponential family, parametrized by xi or by the means.

        Scores are exact: d log rho / d xi_j = -(f_j - eta_j) in canonical
        coordinates, and the covariance-inverse contraction of the same
        centered features in mixture coordinates.
        """
        if parametrization == CANONICAL:

            def dist(theta):
                return CanonicalPoint(family, theta).distribution()

            def scores(theta):
                pt = CanonicalPoint(family, theta)
                eta = mixture_coords(pt)
                return -(family.features - eta[:, None])

        elif parametrization == MIXTURE_COORDS:

            def dist(theta):
                return fit_mixture_coords(family, theta).distribution()

            def scores(theta):
                pt = fit_mixture_coords(family, theta)
                eta = mixture_coords(pt)
                centered = family.features - eta[:, None]
                # d log rho / d eta = V^{-1} (f - eta)
                return np.linalg.solve(covariance(pt), centered)

        else:
            raise ValueError(f"unknown parametrization {parametrization!r}")
        return ParametricFamily(
            family.n_features, family.omega_size, dist, scores
        )

    @staticmethod
    def from_map(
        fn: Callable[[np.ndarray], FiniteDistribution],
        param_dim: int,
        omega_size: int,
        fd_step: float = _FD_STEP,
    ) -> "ParametricFamily":
        """Wrap a user-supplied map; scores come from central differences."""
        return ParametricFamily(param_dim, omega_size, fn, None, fd_step)

    def distribution(self, theta) -> FiniteDistribution:
        theta = self._check_theta(theta)
        rho = self._map(theta)
        if rho.size != self.omega_size:
            raise ValueError(
                f"family map returned {rho.size} points, expected {self.omega_size}"
            )
        return rho

    def scores(self, theta) -> np.ndarray:
        """Score vectors d log rho/d theta_j as rows, zero mean under rho."""
        theta = self._check_theta(theta)
        if self._scores is not None:
            return self._scores(theta)
        out = np.zeros((self.param_dim, self.omega_size))
        p = self.distribution(theta).probs
        for j in range(self.param_dim):
            h = self.fd_step * max(1.0, abs(theta[j]))
            e = np.zeros_like(theta)
            e[j] = h
            hi = self.distribution(theta + e).probs
            lo = self.distribution(theta - e).probs
            dp = (hi - lo) / (2 * h)
            if abs(dp.sum()) > _JACOBIAN_ZERO_SUM_TOL:
                raise ValueError(
                    f"family does not conserve probability: Jacobian column "
                    f"{j} sums to {dp.sum()!r}"
                )
            out[j] = dp / p
        return out

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.param_dim},)"
            )
        return theta


def fisher_information_matrix(fam: ParametricFamily, theta) -> np.ndarray:
    """Fisher information G_ij = E[score_i score_j] at theta.

    Symmetric positive semidefinite; raises with a diagnostic when the state
    sits too close to the boundary for the scores to be reliable.
    """
    rho = fam.distribution(theta)
    if not rho.is_faithful():
        raise ValueError(
            f"state at theta has min probability {rho.probs.min()!r}; "
            f"Fisher information is singular at the boundary"
        )
    s = fam.scores(theta)
    s = s - (s @ rho.probs)[:, None]
    return (s * rho.probs) @ s.T


def estimator_matrix(estimators, omega_size: int) -> np.ndarray:
    est = np.atleast_2d(np.asarray(estimators, dtype=float))
    if est.shape[1] != omega_size:
        raise ValueError(
            f"estimators defined on {est.shape[1]} points, expected {omega_size}"
        )
    return est


def check_unbiased(fam: ParametricFamily, theta, estimators) -> np.ndarray:
    """Residual E_theta[f_i] - theta_i per estimator."""
    theta = np.asarray(theta, dtype=float)
    est = estimator_matrix(estimators, fam.omega_size)
    if est.shape[0] != fam.param_dim:
        raise ValueError(
            f"{est.shape[0]} estimators for {fam.param_dim} parameters"
        )
    p = fam.distribution(theta).probs
    return est @ p - theta


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
    features in mixture coordinates.
    """
    resid = check_unbiased(fam, theta, estimators)
    if np.abs(resid).max() > _UNBIASED_TOL:
        raise BiasedEstimatorError(
            f"estimators biased at theta: max residual {np.abs(resid).max():.3e}",
            residual=resid,
        )
    est = estimator_matrix(estimators, fam.omega_size)
    p = fam.distribution(np.asarray(theta, float)).probs
    centered = est - (est @ p)[:, None]
    v = (centered * p) @ centered.T
    g = fisher_information_matrix(fam, theta)
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
    if m < 1:
        raise ValueError("need at least one draw")
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


def empirical_distribution(hist) -> EmpiricalDistribution:
    h = np.asarray(hist, dtype=float)
    if h.ndim != 1 or np.any(h < 0):
        raise ValueError("histogram must be a 1-d nonnegative vector")
    m = h.sum()
    if m <= 0:
        raise ValueError("histogram is empty")
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
    h = np.asarray(hist, dtype=float)
    if h.ndim != 1 or h.size != family.omega_size:
        raise ValueError(
            f"histogram has shape {h.shape}, expected ({family.omega_size},)"
        )
    m = h.sum()
    if m <= 0:
        raise ValueError("histogram is empty")
    return maxent_fit(family, family.features @ (h / m))
