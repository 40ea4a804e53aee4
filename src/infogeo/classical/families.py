"""Exponential families over a finite sample space.

A family is the span of n feature functions f_1..f_n together with an
optional base log density b.  States are

    rho_xi(w) = exp(b(w) - sum_j xi_j f_j(w) - Psi(xi)),

with Psi = log Z the normalizer (Massieu function).  Under this sign
convention the mixture coordinates are eta_j = E[f_j] = -dPsi/dxi_j, the
feature covariance V is the Hessian of Psi, and the entropy relative to the
base weight is the Legendre transform S_rel = Psi + xi . eta.

Psi is one max-shifted log-sum-exp (:func:`_log_normalize`); a geodesic stage
needs only the probabilities, the max-shifted weights over their sum
(:func:`_weights`).  A :class:`CanonicalPoint` normalises once, or its family's
``_point`` builds it from the last evaluation of :func:`_dual_newton`; it reads
its probabilities, moments and entropy from the cached log density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, FeasibilityError
from ..spectral import _log_sum_shifted, _real, _vector, check_finite, log_sum_exp
from .distributions import FiniteDistribution, check_probabilities

_GRAM_FLOOR = 1e-10
_LEGENDRE_STEP = 1e-5


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
        if f.size == 0:
            raise ValueError("need at least one feature")
        check_finite(f, "features must be finite")
        n, omega = f.shape
        if n >= omega:
            raise ValueError(
                f"{n} features over {omega} points overdetermine the simplex"
            )
        _check_independent(f - f.mean(axis=1, keepdims=True), "constants")
        if self.base_log_density is None:
            b = np.zeros(omega)
        else:
            b = _vector(self.base_log_density, omega, "base log density")
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

    def point(self, xi) -> "CanonicalPoint":
        return CanonicalPoint(self, np.asarray(xi, dtype=float))

    def _oracle(self, xi):
        """The solver's oracle: Psi, eta, their covariance and s = b - xi . f.

        One exp(s - max s) gives both p, formed as :func:`_weights` forms it,
        and Psi, in :func:`..spectral.log_sum_exp`'s log1p form; both bitwise.
        """
        s = self.base_log_density - xi @ self.features
        s_max = s.max()
        w = np.exp(s - s_max)
        eta, _, cov = _moments(self.features, w / w.sum())
        return _log_sum_shifted(w, s == s_max, s_max), eta, cov, s

    def _point(self, xi, value, iterations) -> "CanonicalPoint":
        """The fitted point at xi, from the s and Psi of the oracle's value."""
        pt = object.__new__(CanonicalPoint)
        object.__setattr__(pt, "family", self)
        pt._fill(xi, value[3], value[0])
        return pt


def _check_independent(rows: np.ndarray, modulo: str) -> None:
    """Reject feature rows, already stripped of their part along ``modulo``
    (constants, or the identity), whose Gram min eigenvalue is <= 1e-10."""
    min_eig = float(np.linalg.eigvalsh((rows.conj() @ rows.T).real).min())
    if min_eig <= _GRAM_FLOOR:
        raise ValueError(
            f"features are linearly dependent modulo {modulo} "
            f"(Gram min eigenvalue {min_eig:.3e})"
        )


def _log_normalize(family: ExponentialFamily, xi: np.ndarray):
    """Unnormalized log density s = b - xi . f and Psi = log sum exp(s)."""
    s = family.base_log_density - xi @ family.features
    return s, log_sum_exp(s)


def _weights(family: ExponentialFamily, xi: np.ndarray):
    """s = b - xi . f and the probabilities exp(s - max s) / sum, without Psi;
    dividing by the sum makes p sum to 1 to rounding."""
    s = family.base_log_density - xi @ family.features
    w = np.exp(s - s.max())
    return s, w / w.sum()


@dataclass(frozen=True)
class CanonicalPoint:
    """A member of an exponential family; construction normalises it once
    and caches Psi and the (read-only) normalised log density ``log_p``."""

    family: ExponentialFamily
    xi: np.ndarray
    psi: float = field(init=False)
    log_p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = _vector(self.xi, self.family.n_features, "xi")
        self._fill(xi, *_log_normalize(self.family, xi))

    def _fill(self, xi, s, psi):
        xi = xi.copy()
        xi.setflags(write=False)
        log_p = s - psi
        log_p.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "log_p", log_p)

    def distribution(self) -> FiniteDistribution:
        """The point as a faithful distribution: exp(log p) passes one
        :func:`.distributions.check_probabilities`, which raises
        :class:`BoundaryError` for a cell at or below the floor."""
        return FiniteDistribution._wrap(check_probabilities(self.probs()))

    def probs(self) -> np.ndarray:
        return np.exp(self.log_p)


def mixture_coords(pt: CanonicalPoint) -> np.ndarray:
    """Feature means eta_j = E[f_j], by exact summation."""
    return pt.family.features @ pt.probs()


def _moments(x: np.ndarray, p: np.ndarray):
    """Means x @ p of the rows of x under p, the centered rows, their covariance."""
    mean = x @ p
    centered = x - mean[:, None]
    return mean, centered, (centered * p) @ centered.T


def covariance(pt: CanonicalPoint) -> np.ndarray:
    """Feature covariance matrix V under the point, by exact summation.

    V is the Hessian of Psi in xi, hence positive semidefinite; it is also
    the Fisher information matrix of the family in canonical coordinates,
    and the inverse of the Fisher matrix in mixture coordinates.
    """
    return _moments(pt.family.features, pt.probs())[2]


def entropy_relative_to_base(pt: CanonicalPoint) -> float:
    """-sum p (log p - b): Shannon entropy when the base is uniform."""
    return float(-(pt.probs() * (pt.log_p - pt.family.base_log_density)).sum())


@dataclass(frozen=True)
class LegendreReport:
    """Residuals of the Legendre pair (Psi, S_rel)."""

    identity_residual: float
    gradient_residual: np.ndarray


def legendre_check(pt: CanonicalPoint) -> LegendreReport:
    """Check S_rel = Psi + xi . eta and dS_rel/deta_j = xi_j at the point.

    S_rel is the entropy relative to the base weight, which coincides with
    the Shannon entropy for a uniform base.  The gradient residual is a
    central finite difference in eta: each coordinate is displaced by
    +-1e-5, the canonical coordinates are re-solved by moment matching, and
    the entropy difference quotient is compared against xi_j.
    """
    eta = mixture_coords(pt)
    s_rel = entropy_relative_to_base(pt)
    identity = abs(s_rel - (pt.psi + float(pt.xi @ eta)))

    grad = np.zeros(pt.family.n_features)
    for j in range(pt.family.n_features):
        e = np.zeros_like(eta)
        e[j] = _LEGENDRE_STEP
        hi = fit_mixture_coords(pt.family, eta + e, xi0=pt.xi)
        lo = fit_mixture_coords(pt.family, eta - e, xi0=pt.xi)
        ds = (entropy_relative_to_base(hi) - entropy_relative_to_base(lo)) / (2 * e[j])
        grad[j] = ds - pt.xi[j]
    return LegendreReport(identity, grad)


def fit_mixture_coords(
    family: ExponentialFamily,
    target_means,
    xi0=None,
    tol: float = 1e-10,
    *,
    _warm=None,
) -> CanonicalPoint:
    """Solve for the member whose feature means equal ``target_means``.

    Runs :func:`_dual_newton` on Psi(xi) + xi . m, whose Hessian is the
    feature covariance, from ``xi0`` (default 0), for at most 200 steps.
    Convergence is declared when the mean residual drops below ``tol`` in
    the max norm.  The point takes s and Psi from the solver's evaluation
    at the returned xi.

    ``_warm`` is private: a :class:`_WarmStart` that
    :func:`..projection.roll` threads through its solves of one family.

    Raises
    ------
    ValueError
        If ``xi0`` or the targets have the wrong shape or are not finite, or
        ``tol`` is not positive and finite.
    FeasibilityError
        If the iteration stops with a canonical coordinate beyond 10 in
        absolute value: the target lies outside (or on the boundary of) the
        moment polytope.  The message names that coordinate and its target.
    ConvergenceError
        If the iteration stops anywhere else.
    """
    return _dual_newton(family, target_means, xi0, tol, _warm)


#: Newton steps a solve may take before it stops without convergence.
_MAX_ITER = 200
#: The solver stops once some |xi_j| passes this: the target is escaping.
_DIVERGENCE_NORM = 1e3
#: A stop without convergence beyond this |xi_j| is reported as infeasible.
_INFEASIBLE_NORM = 10.0
#: Line-search steps longer than this (max norm) are rejected unevaluated:
#: the oracle could overflow there, and accepting one would only stop the
#: solver at its next |xi| check.
_TRIAL_NORM = 1e100


class _WarmStart:
    """The last xi a solve returned and the oracle's value there.

    A solve handed one reads the value instead of evaluating the oracle again
    when it starts at exactly that xi, and leaves its own final xi and value
    in it.  One instance serves a chain of solves of the same family, such
    as the projections of one :func:`..projection.roll`.
    """

    __slots__ = ("xi", "value")

    def __init__(self):
        self.xi = self.value = None


def _dual_newton(family, m, xi0, tol: float, warm=None):
    """Minimise the convex dual D(xi) = log Z(xi) + xi . m by damped Newton.

    ``family._oracle(xi)`` returns ``(log_z, eta, hessian, state)``: log Z,
    the feature means (the gradient of D is m - eta), the Hessian of log Z
    (the feature covariance of a classical family, the BKM covariance of a
    quantum one) and what the fitted state is built from.  ``xi0`` (default
    0) is checked like any xi; ``tol`` must be positive and finite.  Armijo
    backtracking (factor 0.5, slope 1e-4) makes D decrease monotonically;
    below a residual of 1e-6 plain Newton steps are taken.  Once max |m - eta| < tol it returns
    ``family._point(xi, value, iterations)``, ``value`` being the oracle's
    value at that xi.  A :class:`_WarmStart` ``warm`` supplies the value at
    ``xi0`` when it holds one for exactly that point, and receives the
    returned xi and value.

    Every stop without convergence (singular Hessian, non-finite step,
    stalled line search, D failing to decrease, |xi| past 1e3, 200 steps
    spent) raises :class:`FeasibilityError` when some |xi_j| exceeds 10,
    else :class:`ConvergenceError`.
    """
    n = family.n_features
    xi = np.zeros(n) if xi0 is None else _vector(xi0, n, "xi").copy()
    m = _vector(m, n, "target means")
    tol = _real(tol, "tol", "positive")

    warm_xi = None if warm is None else warm.xi
    if warm_xi is not None and warm_xi.shape == xi.shape and (warm_xi == xi).all():
        value = warm.value
    else:
        value = family._oracle(xi)
    for it in range(_MAX_ITER):
        log_z, eta, hess, _ = value
        grad = m - eta
        resid = float(np.abs(grad).max())
        if resid < tol:
            if warm is not None:
                warm.xi, warm.value = xi, value
            return family._point(xi, value, it)
        if np.abs(xi).max() > _DIVERGENCE_NORM:
            raise _stopped(f"|xi| passed {_DIVERGENCE_NORM:g}", xi, m, resid)
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise _stopped("singular Hessian", xi, m, resid) from exc
        far = float(np.abs(step).max())
        if not math.isfinite(far):
            # weights lost to underflow can leave nan in a quantum Hessian
            raise _stopped("non-finite Newton step", xi, m, resid)
        if resid < 1e-6:
            # local quadratic phase: objective decreases are below roundoff,
            # so take plain Newton steps instead of an Armijo search
            xi = xi + step
            value = family._oracle(xi)
            continue
        obj = log_z + xi @ m
        slope = float(grad @ step)
        t = 1.0
        while t > 1e-14:
            if t * far > _TRIAL_NORM:
                t *= 0.5
                continue
            xi_new = xi + t * step
            value_n = family._oracle(xi_new)
            obj_n = value_n[0] + xi_new @ m
            if obj_n <= obj + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise _stopped("line search stalled", xi, m, resid)
        if obj_n > obj + 1e-12 * max(1.0, abs(obj)):
            raise _stopped("dual objective failed to decrease", xi, m, resid)
        xi, value = xi_new, value_n
    resid = float(np.abs(m - value[1]).max())
    raise _stopped(f"no convergence in {_MAX_ITER} iterations", xi, m, resid)


def _stopped(reason: str, xi: np.ndarray, m: np.ndarray, resid: float):
    """The error for a dual-Newton iteration that stopped short at xi."""
    j = int(np.abs(xi).argmax())
    if abs(xi[j]) > _INFEASIBLE_NORM:
        return FeasibilityError(
            f"target means appear infeasible: canonical coordinate {j} "
            f"diverges ({xi[j]:.3e}) with residual {resid:.3e}; violated "
            f"direction is feature {j} with target {float(m[j])!r} ({reason})",
            residual=resid,
        )
    return ConvergenceError(
        f"moment matching stopped: {reason} (residual {resid:.3e}, "
        f"|xi| {abs(xi[j]):.3e})",
        residual=resid,
    )


def full_simplex_family(omega_size: int) -> ExponentialFamily:
    """Indicator features on points 1..omega-1: the whole open simplex."""
    f = np.zeros((omega_size - 1, omega_size))
    for j in range(omega_size - 1):
        f[j, j + 1] = 1.0
    return ExponentialFamily(f)
