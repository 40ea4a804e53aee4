"""Quantum exponential families and their Massieu/entropy duality.

States have the Gibbs form rho_xi = exp(-(H0 + sum_j xi_j F_j)) / Z with
Hermitian features F_j.  The Massieu function log Z has gradient -eta
(minus the feature means) and Hessian equal to the BKM covariance of the
centered features, so moment matching is again a smooth convex problem:
:func:`quantum_maxent_fit` runs the classical solver
(:func:`..classical.families._dual_newton`) on the family's ``_oracle``,
whose Hessian is that BKM covariance, and infeasible targets are classified
the same way on both sides.  The xi check and the feature independence check
are the classical ones.  Every spectrum and log Z comes from
:func:`.states.gibbs_spectrum`, once per point: the family's ``_point``
builds the fitted state from the solver's last evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..classical.distributions import entropy
from ..classical.families import (
    _check_independent,
    _dual_newton,
    _WarmStart,
)
from ..spectral import _vector, hermitian_part, kernel_apply, logarithmic_mean_kernel
from .states import (
    DensityMatrix,
    gibbs_density,
    gibbs_moments,
    gibbs_spectrum,
    gibbs_state,
    project_traceless,
)

_PATH_TOL = 1e-12


@dataclass(frozen=True)
class QuantumExponentialFamily:
    """Gibbs family exp(-(H0 + xi . F))/Z over Hermitian features F.

    Features must be linearly independent modulo multiples of the identity
    (Gram matrix of the traceless parts has min eigenvalue above 1e-10).
    ``features`` is one read-only (n, d, d) array of their Hermitian parts.
    """

    h0: np.ndarray
    features: np.ndarray

    def __init__(self, h0, features):
        h0 = hermitian_part(h0)
        feats = []
        d = h0.shape[0]
        for f in features:
            f = hermitian_part(f)
            if f.shape != (d, d):
                raise ValueError(
                    f"feature has shape {f.shape}, expected ({d}, {d})"
                )
            feats.append(f)
        if not feats:
            raise ValueError("need at least one feature")
        stack = np.stack(feats)
        _check_independent(
            project_traceless(stack).reshape(len(feats), -1), "the identity"
        )
        h0.setflags(write=False)
        stack.setflags(write=False)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "features", stack)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def hamiltonian(self, xi) -> np.ndarray:
        xi = _vector(xi, self.n_features, "xi")
        h = self.h0
        for c, f in zip(xi, self.features):
            h = h + c * f
        return h

    def _oracle(self, xi):
        """The solver's oracle: log Z, eta, BKM covariance, Gibbs spectrum (dec, p)."""
        dec, log_p, log_z = gibbs_spectrum(self.hamiltonian(xi))
        p, eta, cov = gibbs_moments(dec, log_p, self.features)
        return log_z, eta, cov, (dec, p)

    def _point(self, xi, value, iterations) -> "QuantumFitResult":
        """The fit at xi, its state built from the oracle's spectrum there."""
        return QuantumFitResult(xi, gibbs_density(*value[3]), value[0], iterations)


def state_from_score(fam: QuantumExponentialFamily, xi) -> DensityMatrix:
    """The family member exp(-(H0 + xi . F))/Z."""
    return gibbs_state(fam.hamiltonian(xi))[0]


def quantum_massieu(fam: QuantumExponentialFamily, xi) -> float:
    """log Z at xi, evaluated through the spectrum with a stabilizing shift."""
    return gibbs_spectrum(fam.hamiltonian(xi))[2]


def quantum_mixture_coords(fam: QuantumExponentialFamily, xi) -> np.ndarray:
    """Feature means eta_j = Tr[rho_xi F_j]."""
    return fam._oracle(xi)[1]


@dataclass(frozen=True)
class QuantumFitResult:
    xi: np.ndarray
    state: DensityMatrix
    log_z: float
    iterations: int


def quantum_maxent_fit(
    fam: QuantumExponentialFamily,
    target_means,
    xi0=None,
    tol: float = 1e-10,
    max_iter: int = 200,
    *,
    _warm=None,
) -> QuantumFitResult:
    """Member of the family with the prescribed feature means.

    Damped Newton (:func:`..classical.families._dual_newton`) on the convex
    function log Z(xi) + xi . m from ``xi0`` (default 0); gradient
    m - eta(xi), Hessian the BKM covariance of the centered features.  Bad
    targets and stops raise as in :func:`..classical.fit_mixture_coords`.
    The state is built from the Gibbs spectrum of the solver's evaluation at
    the returned xi, without decomposing the Hamiltonian or the state again.

    ``_warm`` is private: the ``_WarmStart`` of a chain of solves of one
    family, in :func:`..projection.roll` or along a mean-parametrized path.
    """
    return _dual_newton(fam, target_means, xi0, tol, max_iter, _warm)


def quantum_entropy_relative_to_base(fam: QuantumExponentialFamily, xi) -> float:
    """S - Tr[rho H0]: the Legendre transform of log Z.

    Coincides with the von Neumann entropy when H0 = 0; in general
    S = log Z + xi . eta + Tr[rho H0].
    """
    dec, log_p, _ = gibbs_spectrum(fam.hamiltonian(xi))
    return _entropy_relative_to_base(fam, dec, np.exp(log_p))


def _entropy_relative_to_base(fam: QuantumExponentialFamily, dec, p) -> float:
    """S - Tr[rho H0] of the Gibbs state with weights p in the basis of dec."""
    u = dec.eigenvectors
    rho = (u * p) @ u.conj().T
    return entropy(p) - float(np.trace(rho @ fam.h0).real)


def quantum_legendre_residual(fam: QuantumExponentialFamily, xi) -> float:
    """|S_rel - (log Z + xi . eta)| at xi, from one decomposition of H(xi)."""
    xi = _vector(xi, fam.n_features, "xi")
    log_z, eta, _, state = fam._oracle(xi)
    s_rel = _entropy_relative_to_base(fam, *state)
    return abs(s_rel - (log_z + float(xi @ eta)))


def mean_parametrized_path(fam: QuantumExponentialFamily):
    """One-parameter path eta -> state for a single-feature family.

    Each evaluation solves the moment-matching problem to 1e-12, warm-started
    from the previous solution and its evaluation there; the feature is then
    an exactly unbiased estimator of the path parameter.  The tight tolerance
    keeps the numerical bias well below finite-difference noise.
    """
    if fam.n_features != 1:
        raise ValueError("mean parametrization needs exactly one feature")
    warm = _WarmStart()

    def path(eta: float) -> DensityMatrix:
        fit = quantum_maxent_fit(fam, [eta], xi0=warm.xi, tol=_PATH_TOL, _warm=warm)
        return fit.state

    return path


def mean_path_derivative(fam: QuantumExponentialFamily, eta: float) -> np.ndarray:
    """Exact d rho / d eta along the mean-parametrized path.

    The canonical-coordinate derivative of the state is minus the
    logarithmic-mean kernel image of the centered feature; dividing by the
    Jacobian d eta / d xi (minus the BKM variance) gives the mean derivative
    directly, with Tr[(d rho/d eta) F] = 1 exactly.
    """
    if fam.n_features != 1:
        raise ValueError("mean parametrization needs exactly one feature")
    fit = quantum_maxent_fit(fam, [eta], tol=_PATH_TOL)
    rho = fit.state
    f = fam.features[0]
    f0 = f - rho.expectation(f) * np.eye(fam.dim)
    image = kernel_apply(rho.spectral, f0, logarithmic_mean_kernel)
    variance = float(np.trace(image @ f0).real)
    return image / variance
