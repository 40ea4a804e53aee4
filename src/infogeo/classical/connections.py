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
:class:`CanonicalPoint`.  :func:`geodesic` integrates it with
:func:`_integrate`, the one ODE integrator: adaptive Dormand-Prince 5(4) at
the relative tolerance ``_RTOL`` = 1e-10, whose samples, spaced ``dt``
apart, come off the fourth-order dense output.  ``geodesic`` refuses, by
name, a dt that is not positive and finite, a t_max that is not
nonnegative and finite, a non-finite alpha or velocity, and an xi_box that
is not positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..spectral import _real, _vector
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
    ``steps_accepted`` and ``steps_rejected`` count the integrator's steps
    and ``max_error`` is the largest error norm of an accepted one (at most
    1, in units of the tolerance).
    """

    family: ExponentialFamily
    times: np.ndarray
    xis: np.ndarray
    velocities: np.ndarray
    truncated: bool
    steps_accepted: int
    steps_rejected: int
    max_error: float

    def points(self) -> list[CanonicalPoint]:
        return [CanonicalPoint(self.family, xi) for xi in self.xis]


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980):
# the rows of stages 2-7, the seventh being the fifth-order weights, so its
# rate is the next step's first; the error weights (fifth minus fourth
# order); the weights of the fourth-order dense output (Hairer, Norsett &
# Wanner, Solving Ordinary Differential Equations I, II.6, contd5)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)


# relative tolerance of a step (its absolute tolerance is 1e-2 of it)
_RTOL = 1e-10

# attempted steps per geodesic.  A path that runs into the boundary of the
# family needs ever shorter steps, and there its error estimate can drown in
# the rounding of a near-singular covariance; on the workload's paths a
# geodesic takes 5 to 26 steps
_MAX_STEPS = 2000

# samples per geodesic; the workload's paths take at most about 500
_MAX_SAMPLES = 10**6

# a step below this multiple of t while |xi| grows has collapsed onto a point
# where xi diverges (a face of the family): the path ends there, truncated
_MIN_STEP = 1e-12


def _combine(weights, ks):
    """w_1 k_1 + w_2 k_2 + ... over the nonzero weights, left to right."""
    total = None
    for w, k in zip(weights, ks):
        if w:
            total = w * k if total is None else total + w * k
    return total


def _rms(x) -> float:
    return math.sqrt(float((x * x).sum()) / x.size)


def _integrate(rate, y0, times, n, box):
    """Integrate y' = rate(y) from y0 at t = 0 to the samples at ``times``.

    The one ODE integrator: adaptive Dormand-Prince 5(4), whose last
    stage's rate starts the next step, so an accepted step costs six
    stages.  A step passes when the rms of its error estimate over
    atol + rtol max(|y|, |y_new|), rtol = 1e-10 and atol = 1e-2 rtol, is at
    most 1; the step starts at Hairer's estimate and changes by
    0.9 err^(-1/5) within [0.2, 10], not growing right after a rejection.
    The samples, at ``times`` ascending from 0, come from the fourth-order
    dense output.

    The box, collapse and failed-stage rules read the first ``n``
    components, x.  The path is truncated when a sample or a step's end
    leaves the box |x_j| <= box, its samples stopping at the last one
    inside, and when its step falls below 1e-12 t while max |x_j| grows (x
    diverges at a finite t).  A stage that raises ``ValueError`` at a finite
    x outside the box shortens its step five times if the step holds a
    sample, and else truncates the path; any other failed stage raises, and
    so do 2000 steps.  A starting rate whose rms over atol + rtol |y0| is not
    finite raises ``OverflowError`` before any step.  Returns ``(samples,
    truncated, accepted, rejected, max_error)``: the rows of y reached, the
    step counts and the largest error norm of an accepted step.
    """
    rtol = _RTOL
    atol = 1e-2 * rtol
    t_end = times[-1]
    y, samples = y0, [y0[None]]
    accepted = rejected = 0
    max_error, truncated = 0.0, False
    if t_end > 0:
        # starting step: Hairer, Norsett & Wanner, Solving ODEs I, II.4
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rate(y)
            scale = atol + rtol * np.abs(y)
            d0, d1 = _rms(y / scale), _rms(k1 / scale)
        if not math.isfinite(d1):
            raise OverflowError(f"the starting rate's scaled rms norm is {d1}")
        h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        d2 = _rms((rate(y + h * k1) - k1) / scale) / h
        big = max(d1, d2)
        h = min(100 * h, max(1e-6, 1e-3 * h) if big <= 1e-15 else (0.01 / big) ** 0.2)
    t, i, grow = 0.0, 1, True
    reach, outward = np.abs(y[:n]).max(), False
    while i < len(times):
        if outward and h < _MIN_STEP * t:
            truncated = True
            break
        if accepted + rejected == _MAX_STEPS:
            raise ValueError(
                f"geodesic took {_MAX_STEPS} steps before t = {t:.6g}; "
                f"the path may run into the boundary of the family"
            )
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        ks = [k1]
        try:
            for row in _A:
                stage = y + h * _combine(row, ks)
                ks.append(rate(stage))
        except ValueError:
            # a stage past the box may sit where the rate degenerates: the
            # path leaves the box within this step, which ends the path
            # unless the step holds a sample, and then it is shortened
            head = stage[:n]
            if not (np.isfinite(head).all() and np.abs(head).max() > box):
                raise
            if t + h < times[i]:
                truncated = True
                break
            h, rejected, grow = 0.2 * h, rejected + 1, False
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(stage))
        err = _rms(h * _combine(_E, ks) / scale)
        if not math.isfinite(err):
            raise ValueError(f"geodesic error estimate is not finite at t = {t!r}")
        factor = 10.0 if err == 0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
        if err > 1.0:
            h, rejected, grow = factor * h, rejected + 1, False
            continue
        accepted += 1
        max_error = max(max_error, err)
        t_new = t_end if last else t + h
        j = int(np.searchsorted(times, t_new, side="right"))
        if j > i:
            dy = stage - y
            bspl = h * k1 - dy
            curl = dy - h * ks[-1] - bspl
            top = h * _combine(_D, ks)
            th = ((times[i:j] - t) / h)[:, None]
            rest = 1.0 - th
            dense = y + th * (dy + rest * (bspl + th * (curl + rest * top)))
            out = np.abs(dense[:, :n]).max(axis=1) > box
            kept = int(out.argmax()) if out.any() else j - i
            samples.append(dense[:kept])
            i += kept
        new_reach = np.abs(stage[:n]).max()
        if i < j or new_reach > box:
            truncated = True
            break
        outward, reach = new_reach > reach, new_reach
        y, k1, t = stage, ks[-1], t_new
        h *= factor if grow else min(factor, 1.0)
        grow = True
    return np.concatenate(samples), truncated, accepted, rejected, max_error


def geodesic(
    pt0: CanonicalPoint,
    v0,
    alpha: float,
    t_max: float,
    dt: float = 1e-3,
    xi_box: float = 50.0,
) -> GeodesicPath:
    """Integrate the alpha-geodesic from pt0 with initial velocity v0.

    :func:`_integrate` runs on y = (xi, v) in the box |xi_j| <= xi_box, with
    samples at t = k dt, k <= round(t_max / dt).  At alpha = +1 the rate is
    (v, 0) and the samples are the line xi_0 + t v_0 to rounding.

    dt must be positive and finite, t_max nonnegative and finite, alpha
    finite, xi_box positive and finite, v0 a finite vector of the family's
    size, t_max / dt at most 10^6 samples and v0 small enough for a finite
    starting step; anything else raises ``ValueError`` naming the argument.

    Each stage checks its raw xi array, takes the probabilities from
    :func:`.families._weights` (no log Z), builds no :class:`CanonicalPoint`
    and shares its acceleration kernel with :func:`geodesic_acceleration`:
    2 + 6 (steps_accepted + steps_rejected) weight vectors per path, fewer
    after a failed stage, and none at alpha = +1 or without a step.
    """
    dt = _real(dt, "dt", "positive")
    t_max = _real(t_max, "t_max", "nonnegative")
    alpha = _real(alpha, "alpha")
    xi_box = _real(xi_box, "xi_box", "positive")
    family = pt0.family
    n = family.n_features
    v0 = _vector(v0, n, "velocity")
    # round(t_max / dt) + 1 samples, counted before the grid is built
    ratio = t_max / dt
    if ratio >= _MAX_SAMPLES - 0.5:
        raise ValueError(f"t_max / dt = {ratio:.6g}: more than {_MAX_SAMPLES} samples")

    def rate(y):
        xi, v = y[:n], y[n:]
        _vector(xi, n, "xi")
        if alpha == 1.0:
            return np.concatenate((v, np.zeros(n)))
        # looked up on the module, so that rebinding it there reaches stages
        p = families._weights(family, xi)[1]
        return np.concatenate((v, _acceleration(family.features, p, v, alpha)))

    times = dt * np.arange(round(ratio) + 1)
    try:
        ys, truncated, accepted, rejected, max_error = _integrate(
            rate, np.concatenate((pt0.xi, v0)), times, n, xi_box
        )
    except OverflowError as exc:
        raise ValueError(f"velocity is too large: {exc}") from None
    return GeodesicPath(
        family, times[: len(ys)], ys[:, :n], ys[:, n:], truncated,
        accepted, rejected, max_error,
    )


def geodesic_mixture_coords(path: GeodesicPath) -> np.ndarray:
    """Mixture coordinates eta(t) along a geodesic path, one row per sample."""
    return np.asarray(
        [mixture_coords(CanonicalPoint(path.family, xi)) for xi in path.xis]
    )
