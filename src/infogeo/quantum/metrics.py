"""Petz monotone metrics, logarithmic derivatives and quantum variance bounds.

A monotone metric is fixed by an operator-monotone f (Petz, Linear Algebra
Appl. 244, 1996): its kernel 1/(q f(p/q)) maps a mixture tangent D to the
score K(D) in the state eigenbasis, and Tr[D K(D)] is the squared length.
:data:`METRIC_KERNELS` is the one table of them: gns, f(x) = (1 + x)/2,
whose score is the symmetric logarithmic derivative L_s, and bkm,
f(x) = (x - 1)/log x, whose score L_B is the derivative of log rho.  The
right derivative L_r = rho^{-1} D belongs to no monotone metric.  Each gives
an information number and a variance bound for locally unbiased estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import BiasedEstimatorError
from ..spectral import (
    Kernel,
    _kernel_pairing,
    _known,
    hermitian_part,
    kernel_apply,
    log_difference_kernel,
    logarithmic_mean_kernel,
    symmetric_inverse_kernel,
)
from .states import DensityMatrix, gauge_fix_score, project_traceless

GNS_SLD = "GNS_SLD"
BKM = "BKM"
RIGHT = "RIGHT"

_DRHO_TRACE_TOL = 1e-8
_UNBIASED_TOL = 1e-6
_FD_STEP = 1e-5


#: The monotone quantum metrics by the names the audits and the CLI use:
#: (mixture-to-score kernel, key of the information in Cramer-Rao reports).
METRIC_KERNELS = {
    "gns": (symmetric_inverse_kernel, GNS_SLD),
    "bkm": (log_difference_kernel, BKM),
}


def _metric_kernel(metric: str) -> Kernel:
    """Kernel of a metric of the table; other names raise."""
    return METRIC_KERNELS[_known(METRIC_KERNELS, metric, "metric")][0]


def _as_score(rho: DensityMatrix, x) -> np.ndarray:
    m = x.matrix if hasattr(x, "matrix") else x
    if hasattr(x, "rep") and x.rep != "score":
        raise ValueError("metric arguments must be scores; convert first")
    m = hermitian_part(m)
    if m.shape[0] != rho.dim:
        raise ValueError(f"operand dim {m.shape[0]} != state dim {rho.dim}")
    return gauge_fix_score(rho, m)


def gns_metric(rho: DensityMatrix, x, y) -> float:
    """Re Tr[rho X Y] on scores; positive definite since rho is faithful."""
    xs = _as_score(rho, x)
    ys = _as_score(rho, y)
    return float(np.trace(rho.matrix @ xs @ ys).real)


def bkm_metric(rho: DensityMatrix, x, y) -> float:
    """integral_0^1 Tr[rho^a X rho^(1-a) Y] da on scores.

    Evaluated in closed form as the eigenbasis pairing of the
    logarithmic-mean kernel; never by quadrature (a quadrature evaluation
    exists in the tests as an oracle).
    """
    xs = _as_score(rho, x)
    ys = _as_score(rho, y)
    return float(_kernel_pairing(rho.spectral, xs, ys, logarithmic_mean_kernel))


def path_derivative(path: Callable[[float], DensityMatrix], t0: float) -> np.ndarray:
    """Central finite-difference derivative of a state path at step 1e-5,
    symmetrized and projected back onto the traceless subspace."""
    hi = path(t0 + _FD_STEP).matrix
    lo = path(t0 - _FD_STEP).matrix
    d = (hi - lo) / (2.0 * _FD_STEP)
    tr = abs(np.trace(d).real)
    if tr > _DRHO_TRACE_TOL:
        raise ValueError(
            f"path derivative has trace {tr:.3e}; the family leaves the "
            f"trace-one surface"
        )
    return project_traceless(d)


def _resolve_drho(path, t0, drho) -> tuple[DensityMatrix, np.ndarray]:
    rho = path(t0)
    if drho is None:
        d = path_derivative(path, t0)
    else:
        d = hermitian_part(np.asarray(drho))
        if abs(np.trace(d).real) > _DRHO_TRACE_TOL:
            raise ValueError("supplied derivative is not traceless")
        d = project_traceless(d)
    return rho, d


@dataclass(frozen=True)
class LogDerivatives:
    """The three logarithmic derivatives of a path at one parameter value."""

    right: np.ndarray
    right_is_hermitian: bool
    symmetric: np.ndarray
    bkm: np.ndarray
    drho: np.ndarray


def log_derivatives(
    path: Callable[[float], DensityMatrix], t0: float, drho=None
) -> LogDerivatives:
    """Compute L_r, L_s and L_B of the path at t0.

    ``drho`` may supply the derivative analytically, as a matrix; otherwise
    a central difference with step 1e-5 is used.  L_r is returned as a
    general matrix with an explicit hermiticity flag since it is
    non-Hermitian whenever the state and its derivative do not commute.
    """
    rho, d = _resolve_drho(path, t0, drho)
    r_inv = np.linalg.inv(rho.matrix)
    l_right = r_inv @ d
    herm = bool(np.linalg.norm(l_right - l_right.conj().T) < 1e-8)
    score = {
        key: kernel_apply(rho.spectral, d, k) for k, key in METRIC_KERNELS.values()
    }
    return LogDerivatives(l_right, herm, score[GNS_SLD], score[BKM], d)


def _info_kernels() -> dict:
    """Kernel of each information kind by report key; RIGHT has none."""
    return {**{key: k for k, key in METRIC_KERNELS.values()}, RIGHT: None}


def _info(rho: DensityMatrix, d: np.ndarray, kernel: Kernel | None) -> float:
    if kernel is None:  # RIGHT: Tr[rho L_r* L_r]
        l = np.linalg.inv(rho.matrix) @ d
        return float(np.trace(rho.matrix @ l.conj().T @ l).real)
    return float(_kernel_pairing(rho.spectral, d, d, kernel))


def quantum_fisher_info(
    path: Callable[[float], DensityMatrix], t0: float, which: str, drho=None
) -> float:
    """Information number of the path for the chosen pairing.

    GNS_SLD and BKM, the report keys of the table's metrics: Tr[D K(D)];
    RIGHT: Tr[rho L_r* L_r]; other kinds raise, listing the known ones.
    All three coincide with the classical Fisher information when the path
    commutes with its derivative.  ``drho`` is as in :func:`log_derivatives`.
    """
    kernels = _info_kernels()
    kernel = kernels[_known(kernels, which, "information kind")]
    return _info(*_resolve_drho(path, t0, drho), kernel)


@dataclass(frozen=True)
class QuantumCramerRaoReport:
    """Variance of an unbiased estimator against the three information bounds.

    ``variance`` is the ordinary variance Tr[rho X^2] - (Tr[rho X])^2;
    ``bkm_variance`` is the squared BKM length of the centered estimator,
    which is never larger (logarithmic mean below arithmetic mean).  The
    slack entries are variance - bound; ``bkm_pairing_slack`` is
    bkm_variance - 1/info_BKM, the quantity that vanishes identically along
    exponential families in mixture parametrization.
    """

    variance: float
    bkm_variance: float
    info: dict
    bound: dict
    slack: dict
    bkm_pairing_slack: float
    bias_derivative: float


def quantum_cramer_rao(
    path: Callable[[float], DensityMatrix],
    t0: float,
    observable: np.ndarray,
    drho=None,
) -> QuantumCramerRaoReport:
    """Cramer-Rao report for an observable estimating the path parameter.

    Precondition (checked): the observable is locally unbiased, i.e.
    Tr[rho_t X] = t and its derivative equals 1 to 1e-6.  ``drho`` is as in
    :func:`log_derivatives`.
    """
    rho, d = _resolve_drho(path, t0, drho)
    x = hermitian_part(observable)
    mean = rho.expectation(x)
    dmean = float(np.trace(d @ x).real)
    if abs(mean - t0) > _UNBIASED_TOL or abs(dmean - 1.0) > _UNBIASED_TOL:
        raise BiasedEstimatorError(
            f"observable is biased: mean {mean!r} at t0 {t0!r}, "
            f"mean derivative {dmean!r}",
            residual=(mean - t0, dmean - 1.0),
        )
    x0 = x - mean * np.eye(rho.dim)
    variance = float(np.trace(rho.matrix @ x0 @ x0).real)
    bkm_var = bkm_metric(rho, x0, x0)
    info = {k: _info(rho, d, kernel) for k, kernel in _info_kernels().items()}
    bound = {k: 1.0 / v for k, v in info.items()}
    slack = {k: variance - b for k, b in bound.items()}
    return QuantumCramerRaoReport(
        variance=variance,
        bkm_variance=bkm_var,
        info=info,
        bound=bound,
        slack=slack,
        bkm_pairing_slack=bkm_var - bound[BKM],
        bias_derivative=dmean - 1.0,
    )
