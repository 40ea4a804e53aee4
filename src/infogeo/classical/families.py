"""Exponential families over a finite sample space.

A family is the span of n feature functions f_1..f_n together with an
optional base log density b.  States are

    rho_xi(w) = exp(b(w) - sum_j xi_j f_j(w) - Psi(xi)),

with Psi = log Z the normalizer (Massieu function).  Under this sign
convention the mixture coordinates are eta_j = E[f_j] = -dPsi/dxi_j, the
feature covariance V is the Hessian of Psi, and the entropy relative to the
base weight is the Legendre transform S_rel = Psi + xi . eta.

Every normalisation is one max-shifted log-sum-exp (:func:`_log_normalize`);
a :class:`CanonicalPoint` normalises once and reads its probabilities,
moments and entropy from the cached log density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError
from ..spectral import log_sum_exp
from .distributions import FiniteDistribution

_GRAM_FLOOR = 1e-10


@dataclass(frozen=True)
class ExponentialFamily:
    """Feature span defining an exponential family on ``omega_size`` points.

    Parameters
    ----------
    features : (n, omega_size) array
        Feature functions as rows.  They must be linearly independent modulo
        constants (Gram matrix of the centered rows has min eigenvalue above
        1e-10), otherwise the covariance degenerates and the moment-matching
        solver has no unique answer.
    base_log_density : (omega_size,) array, optional
        Log weight of the base measure; defaults to 0 (uniform base).
    """

    features: np.ndarray
    base_log_density: np.ndarray | None = None

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.features, dtype=float))
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        n, omega = f.shape
        if n >= omega:
            raise ValueError(
                f"{n} features over {omega} points overdetermine the simplex"
            )
        centered = f - f.mean(axis=1, keepdims=True)
        gram = centered @ centered.T
        min_eig = float(np.linalg.eigvalsh(gram).min())
        if min_eig <= _GRAM_FLOOR:
            raise ValueError(
                f"features are linearly dependent modulo constants "
                f"(Gram min eigenvalue {min_eig:.3e})"
            )
        if self.base_log_density is None:
            b = np.zeros(omega)
        else:
            b = np.asarray(self.base_log_density, dtype=float)
            if b.shape != (omega,):
                raise ValueError(
                    f"base log density has shape {b.shape}, expected ({omega},)"
                )
        f = f.copy()
        f.setflags(write=False)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "base_log_density", b)

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def omega_size(self) -> int:
        return self.features.shape[1]

    def log_probs(self, xi) -> np.ndarray:
        """Normalized log density at canonical coordinates xi."""
        s, psi = _log_normalize(self, _check_xi(self, xi))
        return s - psi

    def massieu(self, xi) -> float:
        """log Z at xi, evaluated by log-sum-exp (never overflows)."""
        return _log_normalize(self, _check_xi(self, xi))[1]

    def point(self, xi) -> "CanonicalPoint":
        return CanonicalPoint(self, np.asarray(xi, dtype=float))


def _check_xi(family: ExponentialFamily, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (family.n_features,):
        raise ValueError(
            f"xi has shape {xi.shape}, expected ({family.n_features},)"
        )
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    return xi


def _log_normalize(family: ExponentialFamily, xi: np.ndarray):
    """Unnormalized log density s = b - xi . f and Psi = log sum exp(s)."""
    s = family.base_log_density - xi @ family.features
    return s, log_sum_exp(s)


@dataclass(frozen=True)
class CanonicalPoint:
    """A member of an exponential family; construction normalises it once
    and caches Psi and the (read-only) normalised log density ``log_p``."""

    family: ExponentialFamily
    xi: np.ndarray
    psi: float = field(init=False)
    log_p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = _check_xi(self.family, self.xi).copy()
        xi.setflags(write=False)
        s, psi = _log_normalize(self.family, xi)
        log_p = s - psi
        log_p.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "log_p", log_p)

    def distribution(self) -> FiniteDistribution:
        return FiniteDistribution(self.probs())

    def probs(self) -> np.ndarray:
        return np.exp(self.log_p)


def massieu(pt: CanonicalPoint) -> float:
    """The normalizer Psi = log Z at the point."""
    return pt.psi


def mixture_coords(pt: CanonicalPoint) -> np.ndarray:
    """Feature means eta_j = E[f_j], by exact summation."""
    return pt.family.features @ pt.probs()


def _centered(pt: CanonicalPoint):
    """Probabilities p and the features centered at their means under p."""
    p = pt.probs()
    f = pt.family.features
    return p, f - (f @ p)[:, None]


def covariance(pt: CanonicalPoint) -> np.ndarray:
    """Feature covariance matrix V under the point, by exact summation.

    V is the Hessian of Psi in xi, hence positive semidefinite; it is also
    the Fisher information matrix of the family in canonical coordinates,
    and the inverse of the Fisher matrix in mixture coordinates.
    """
    p, centered = _centered(pt)
    return (centered * p) @ centered.T


def entropy_relative_to_base(pt: CanonicalPoint) -> float:
    """-sum p (log p - b): Shannon entropy when the base is uniform."""
    return float(-(pt.probs() * (pt.log_p - pt.family.base_log_density)).sum())


@dataclass(frozen=True)
class LegendreReport:
    """Residuals of the Legendre pair (Psi, S_rel)."""

    identity_residual: float
    gradient_residual: np.ndarray

    def max_residual(self) -> float:
        return max(self.identity_residual, float(np.abs(self.gradient_residual).max()))


def legendre_check(pt: CanonicalPoint, step: float = 1e-5) -> LegendreReport:
    """Check S_rel = Psi + xi . eta and dS_rel/deta_j = xi_j at the point.

    S_rel is the entropy relative to the base weight, which coincides with
    the Shannon entropy for a uniform base.  The gradient residual is a
    central finite difference in eta: each coordinate is displaced by
    +-step, the canonical coordinates are re-solved by moment matching, and
    the entropy difference quotient is compared against xi_j.
    """
    eta = mixture_coords(pt)
    s_rel = entropy_relative_to_base(pt)
    identity = abs(s_rel - (pt.psi + float(pt.xi @ eta)))

    grad = np.zeros(pt.family.n_features)
    for j in range(pt.family.n_features):
        e = np.zeros_like(eta)
        e[j] = step
        hi = fit_mixture_coords(pt.family, eta + e, xi0=pt.xi)
        lo = fit_mixture_coords(pt.family, eta - e, xi0=pt.xi)
        ds = (entropy_relative_to_base(hi) - entropy_relative_to_base(lo)) / (2 * step)
        grad[j] = ds - pt.xi[j]
    return LegendreReport(identity, grad)


def _psi_eta_cov(family: ExponentialFamily, xi):
    s, psi = _log_normalize(family, xi)
    # dividing the shifted weights by their sum makes p sum to 1 to rounding
    w = np.exp(s - s.max())
    p = w / w.sum()
    eta = family.features @ p
    centered = family.features - eta[:, None]
    cov = (centered * p) @ centered.T
    return psi, eta, cov


def fit_mixture_coords(
    family: ExponentialFamily,
    target_means,
    xi0=None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> CanonicalPoint:
    """Solve for the member whose feature means equal ``target_means``.

    Damped Newton iteration on the convex dual D(xi) = Psi(xi) + xi . m with
    Armijo backtracking (factor 0.5, slope 1e-4); the objective decreases
    monotonically and the gradient m - eta(xi) vanishes at the solution.
    Convergence is declared when the mean residual drops below ``tol`` in
    the max norm.

    Raises
    ------
    ConvergenceError
        If the iteration budget is exhausted.  Diverging ``xi`` with a
        non-vanishing residual is classified by :func:`..estimation.maxent_fit`
        as an infeasible target.
    """
    m = np.asarray(target_means, dtype=float)
    if m.shape != (family.n_features,):
        raise ValueError(
            f"target means have shape {m.shape}, expected ({family.n_features},)"
        )
    xi = np.zeros(family.n_features) if xi0 is None else np.asarray(xi0, float).copy()

    psi, eta, cov = _psi_eta_cov(family, xi)
    obj = psi + xi @ m
    for _ in range(max_iter):
        grad = m - eta
        resid = float(np.abs(grad).max())
        if resid < tol:
            return CanonicalPoint(family, xi)
        try:
            step = -np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular covariance during moment matching at |xi|="
                f"{np.abs(xi).max():.3e}",
                residual=resid,
            ) from exc
        if resid < 1e-6:
            # local quadratic phase: objective decreases are below roundoff,
            # so take plain Newton steps instead of an Armijo search
            xi = xi + step
            psi, eta, cov = _psi_eta_cov(family, xi)
            obj = psi + xi @ m
            continue
        slope = float(grad @ step)
        t = 1.0
        while t > 1e-14:
            xi_new = xi + t * step
            psi_n, eta_n, cov_n = _psi_eta_cov(family, xi_new)
            obj_n = psi_n + xi_new @ m
            if obj_n <= obj + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "line search stalled during moment matching", residual=resid
            )
        if obj_n > obj + 1e-12 * max(1.0, abs(obj)):
            raise ConvergenceError(
                "dual objective failed to decrease", residual=resid
            )
        xi, psi, eta, cov, obj = xi_new, psi_n, eta_n, cov_n, obj_n
    raise ConvergenceError(
        f"moment matching did not converge in {max_iter} iterations "
        f"(residual {float(np.abs(m - eta).max()):.3e}, |xi| "
        f"{float(np.abs(xi).max()):.3e})",
        residual=float(np.abs(m - eta).max()),
    )


def full_simplex_family(omega_size: int) -> ExponentialFamily:
    """Indicator features on points 1..omega-1: the whole open simplex."""
    f = np.zeros((omega_size - 1, omega_size))
    for j in range(omega_size - 1):
        f[j, j + 1] = 1.0
    return ExponentialFamily(f)
