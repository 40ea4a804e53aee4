"""The alpha-family of affine connections on an exponential family.

In canonical coordinates the +1 connection is flat (zero Christoffel
symbols) and the whole interpolating family is carried by the third central
moment of the features

    T_ijk = E[(f_i - eta_i)(f_j - eta_j)(f_k - eta_k)],

which is minus the xi-gradient of the covariance under the exp(-xi . f)
sign convention used here.  The lowered Christoffel symbols are

    Gamma^(alpha)_{ij,k} = -(1 - alpha)/2 * T_ijk,

so that alpha = -1 geodesics are straight lines in mixture coordinates and
alpha = 0 reproduces the Levi-Civita geodesics of the Fisher metric (great
circles in square-root coordinates on the full simplex).

The geodesic integrator never forms T or the Christoffel symbols: its
acceleration contracts the skewness with the velocity directly,

    T(v, v)_k = sum_w p_w c_kw (v . c_w)^2,   xi'' = (1 - alpha)/2 V^-1 T(v, v),

with c the centered features, at O(n omega) per stage from the max-shifted
weights of the raw xi array (no log Z); a stage builds no
:class:`CanonicalPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families
from .families import CanonicalPoint, ExponentialFamily, _moments, mixture_coords


def _skewness(p: np.ndarray, centered: np.ndarray) -> np.ndarray:
    return np.einsum("iw,jw,kw,w->ijk", centered, centered, centered, p)


def _solve_covariance(cov: np.ndarray, rhs: np.ndarray):
    """V^-1 rhs with V the feature covariance; singular V is a ValueError."""
    try:
        return np.linalg.solve(cov, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular covariance matrix; features degenerate at this point"
        ) from exc


def skewness_tensor(pt: CanonicalPoint) -> np.ndarray:
    """Third central moment of the features, fully symmetric, shape (n,n,n)."""
    p = pt.probs()
    return _skewness(p, _moments(pt.family.features, p)[1])


def christoffel(pt: CanonicalPoint, alpha: float) -> np.ndarray:
    """Raised Christoffel symbols Gamma^k_{ij} in canonical coordinates.

    The skewness tensor is contracted with the inverse covariance; at
    alpha = +1 the result vanishes identically.
    """
    n = pt.family.n_features
    if alpha == 1.0:
        return np.zeros((n, n, n))
    p = pt.probs()
    _, centered, cov = _moments(pt.family.features, p)
    # T is symmetric, so its last index can be solved against as its first
    lowered = -0.5 * (1.0 - alpha) * _skewness(p, centered)
    return _solve_covariance(cov, lowered.reshape(n, n * n)).reshape(n, n, n)


def geodesic_acceleration(pt: CanonicalPoint, v, alpha: float) -> np.ndarray:
    """xi'' = -Gamma^k_{ij} v^i v^j of the alpha-geodesic through pt.

    Evaluated as (1 - alpha)/2 V^-1 T(v, v) without forming T or Gamma, with
    the probabilities a geodesic stage uses; zero at alpha = +1.
    """
    if alpha == 1.0:
        return np.zeros(pt.family.n_features)
    p = families._weights(pt.family, pt.xi)[1]
    return _acceleration(pt.family.features, p, v, alpha)


def _acceleration(features, p, v, alpha: float) -> np.ndarray:
    """(1 - alpha)/2 V^-1 T(v, v) under the probabilities p."""
    _, centered, cov = _moments(features, p)
    tvv = centered @ (p * (v @ centered) ** 2)
    return 0.5 * (1.0 - alpha) * _solve_covariance(cov, tvv)


@dataclass(frozen=True)
class GeodesicPath:
    """Samples of a geodesic: times, canonical coordinates, velocities.

    ``truncated`` is set when the trajectory left the coordinate box before
    reaching t_max; the recorded samples stop at the last point inside.
    """

    family: ExponentialFamily
    times: np.ndarray
    xis: np.ndarray
    velocities: np.ndarray
    truncated: bool

    def points(self) -> list[CanonicalPoint]:
        return [CanonicalPoint(self.family, xi) for xi in self.xis]


def geodesic(
    pt0: CanonicalPoint,
    v0,
    alpha: float,
    t_max: float,
    dt: float = 1e-3,
    xi_box: float = 50.0,
) -> GeodesicPath:
    """Integrate the alpha-geodesic from pt0 with initial velocity v0.

    Fixed-step classical RK4 on the stacked first-order state y = (xi, v);
    samples are returned at multiples of dt.  For alpha = +1 the Christoffel
    symbols vanish and RK4 reproduces the straight line xi_0 + t v_0 exactly.
    Each RK4 stage checks its raw xi array, takes the probabilities from
    :func:`.families._weights` (no log Z), builds no :class:`CanonicalPoint`
    and shares its acceleration kernel with :func:`geodesic_acceleration`;
    an N-step path evaluates 4N weight vectors, none at alpha = +1.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    family = pt0.family
    n = family.n_features
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (n,):
        raise ValueError(f"velocity has shape {v0.shape}, expected ({n},)")

    def rate(y):
        xi, v = y[:n], y[n:]
        families._check_xi(family, xi)
        if alpha == 1.0:
            return np.concatenate((v, np.zeros(n)))
        # looked up on the module, so that rebinding it there reaches stages
        p = families._weights(family, xi)[1]
        return np.concatenate((v, _acceleration(family.features, p, v, alpha)))

    y = np.concatenate((pt0.xi, v0))
    times, ys = [0.0], [y]
    truncated = False
    for k in range(int(round(t_max / dt))):
        k1 = rate(y)
        k2 = rate(y + 0.5 * dt * k1)
        k3 = rate(y + 0.5 * dt * k2)
        k4 = rate(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.abs(y[:n]).max() > xi_box:
            truncated = True
            break
        times.append((k + 1) * dt)
        ys.append(y)
    ys = np.asarray(ys)
    return GeodesicPath(family, np.asarray(times), ys[:, :n], ys[:, n:], truncated)


def geodesic_mixture_coords(path: GeodesicPath) -> np.ndarray:
    """Mixture coordinates eta(t) along a geodesic path, one row per sample."""
    return np.asarray(
        [mixture_coords(CanonicalPoint(path.family, xi)) for xi in path.xis]
    )
