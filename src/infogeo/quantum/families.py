"""Quantum exponential families and their Massieu/entropy duality.

States have the Gibbs form rho_xi = exp(-(H0 + sum_j xi_j F_j)) / Z with
Hermitian features F_j.  The Massieu function log Z has gradient -eta
(minus the feature means) and Hessian equal to the BKM covariance of the
centered features, so moment matching is again a smooth convex problem and
the same damped Newton iteration as in the classical case applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, FeasibilityError
from ..spectral import eigh, hermitian_part, log_sum_exp, logarithmic_mean_kernel
from .states import DensityMatrix, gibbs_density

_GRAM_FLOOR = 1e-10
_DIVERGENCE_NORM = 1e3


@dataclass(frozen=True)
class QuantumExponentialFamily:
    """Gibbs family exp(-(H0 + xi . F))/Z over Hermitian features F.

    Features must be linearly independent modulo multiples of the identity
    (Gram matrix of the traceless parts has min eigenvalue above 1e-10).
    """

    h0: np.ndarray
    features: tuple

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
            f.setflags(write=False)
            feats.append(f)
        if not feats:
            raise ValueError("need at least one feature")
        traceless = [f - (np.trace(f).real / d) * np.eye(d) for f in feats]
        gram = np.array(
            [[np.trace(a.conj().T @ b).real for b in traceless] for a in traceless]
        )
        min_eig = float(np.linalg.eigvalsh(gram).min())
        if min_eig <= _GRAM_FLOOR:
            raise ValueError(
                f"features are linearly dependent modulo the identity "
                f"(Gram min eigenvalue {min_eig:.3e})"
            )
        h0.setflags(write=False)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "features", tuple(feats))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def hamiltonian(self, xi) -> np.ndarray:
        xi = _check_xi(self, xi)
        h = self.h0.copy()
        for c, f in zip(xi, self.features):
            h = h + c * f
        return h


def _check_xi(fam: QuantumExponentialFamily, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (fam.n_features,):
        raise ValueError(f"xi has shape {xi.shape}, expected ({fam.n_features},)")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    return xi


def _gibbs(fam: QuantumExponentialFamily, xi):
    """Eigenvalues/vectors of the state and log Z, overflow-safe."""
    dec = eigh(fam.hamiltonian(xi))
    log_z = log_sum_exp(-dec.eigenvalues)
    p = np.exp(-dec.eigenvalues - log_z)
    return dec, p, log_z


def state_from_score(fam: QuantumExponentialFamily, xi) -> DensityMatrix:
    """The family member exp(-(H0 + xi . F))/Z."""
    dec, p, _ = _gibbs(fam, xi)
    return gibbs_density(dec, p)


def quantum_massieu(fam: QuantumExponentialFamily, xi) -> float:
    """log Z at xi, evaluated through the spectrum with a stabilizing shift."""
    _, _, log_z = _gibbs(fam, xi)
    return log_z


def _means_and_bkm_cov(fam: QuantumExponentialFamily, xi):
    dec, p, log_z = _gibbs(fam, xi)
    u = dec.eigenvectors
    n = fam.n_features
    ft = [u.conj().T @ f @ u for f in fam.features]
    eta = np.array([float((p * np.diagonal(f).real).sum()) for f in ft])
    k = logarithmic_mean_kernel.matrix(p)
    cov = np.zeros((n, n))
    centered = [ft[j] - eta[j] * np.eye(fam.dim) for j in range(n)]
    for j in range(n):
        for l in range(j, n):
            val = float(np.sum(k * centered[j] * centered[l].conj()).real)
            cov[j, l] = cov[l, j] = val
    return eta, cov, log_z


def quantum_mixture_coords(fam: QuantumExponentialFamily, xi) -> np.ndarray:
    """Feature means eta_j = Tr[rho_xi F_j]."""
    eta, _, _ = _means_and_bkm_cov(fam, xi)
    return eta


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
) -> QuantumFitResult:
    """Member of the family with the prescribed feature means.

    Damped Newton on the convex function log Z(xi) + xi . m; gradient
    m - eta(xi), Hessian the BKM covariance of the centered features.
    Diverging coordinates with a stuck residual are reported as an
    infeasible target.
    """
    m = np.asarray(target_means, dtype=float)
    if m.shape != (fam.n_features,):
        raise ValueError(
            f"target means have shape {m.shape}, expected ({fam.n_features},)"
        )
    xi = np.zeros(fam.n_features) if xi0 is None else np.asarray(xi0, float).copy()
    eta, cov, log_z = _means_and_bkm_cov(fam, xi)
    obj = log_z + xi @ m
    for it in range(max_iter):
        grad = m - eta
        resid = float(np.abs(grad).max())
        if resid < tol:
            return QuantumFitResult(xi, state_from_score(fam, xi), log_z, it)
        if np.abs(xi).max() > _DIVERGENCE_NORM:
            raise FeasibilityError(
                f"target means appear infeasible: |xi| reached "
                f"{np.abs(xi).max():.3e} with residual {resid:.3e}"
            )
        try:
            step = -np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "singular BKM covariance during quantum moment matching",
                residual=resid,
            ) from exc
        if resid < 1e-6:
            # local quadratic phase: skip the line search, whose objective
            # comparisons sit below roundoff here
            xi = xi + step
            eta, cov, log_z = _means_and_bkm_cov(fam, xi)
            obj = log_z + xi @ m
            continue
        slope = float(grad @ step)
        t = 1.0
        while t > 1e-14:
            xi_new = xi + t * step
            eta_n, cov_n, log_z_n = _means_and_bkm_cov(fam, xi_new)
            obj_n = log_z_n + xi_new @ m
            if obj_n <= obj + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "line search stalled during quantum moment matching",
                residual=resid,
            )
        xi, eta, cov, log_z, obj = xi_new, eta_n, cov_n, log_z_n, obj_n
    raise ConvergenceError(
        f"quantum moment matching did not converge in {max_iter} iterations",
        residual=float(np.abs(m - eta).max()),
    )


def quantum_entropy_relative_to_base(fam: QuantumExponentialFamily, xi) -> float:
    """S - Tr[rho H0]: the Legendre transform of log Z.

    Coincides with the von Neumann entropy when H0 = 0; in general
    S = log Z + xi . eta + Tr[rho H0].
    """
    dec, p, log_z = _gibbs(fam, xi)
    u = dec.eigenvectors
    rho = (u * p) @ u.conj().T
    s = float(-(p[p > 0] * np.log(p[p > 0])).sum())
    return s - float(np.trace(rho @ fam.h0).real)


def quantum_legendre_residual(fam: QuantumExponentialFamily, xi) -> float:
    """|S_rel - (log Z + xi . eta)| at the given coordinates."""
    xi = _check_xi(fam, xi)
    eta, _, log_z = _means_and_bkm_cov(fam, xi)
    s_rel = quantum_entropy_relative_to_base(fam, xi)
    return abs(s_rel - (log_z + float(xi @ eta)))


def mean_parametrized_path(fam: QuantumExponentialFamily, tol: float = 1e-12):
    """One-parameter path eta -> state for a single-feature family.

    Each evaluation solves the moment-matching problem, warm-started from
    the previous solution; the feature is then an exactly unbiased estimator
    of the path parameter.  The tight default tolerance keeps the numerical
    bias well below finite-difference noise.
    """
    if fam.n_features != 1:
        raise ValueError("mean parametrization needs exactly one feature")
    cache = {"xi": np.zeros(1)}

    def path(eta: float) -> DensityMatrix:
        fit = quantum_maxent_fit(fam, [eta], xi0=cache["xi"], tol=tol)
        cache["xi"] = fit.xi
        return fit.state

    return path


def mean_path_derivative(fam: QuantumExponentialFamily, eta: float) -> np.ndarray:
    """Exact d rho / d eta along the mean-parametrized path.

    The canonical-coordinate derivative of the state is minus the
    logarithmic-mean kernel image of the centered feature; dividing by the
    Jacobian d eta / d xi (minus the BKM variance) gives the mean derivative
    directly, with Tr[(d rho/d eta) F] = 1 exactly.
    """
    from ..spectral import kernel_apply

    if fam.n_features != 1:
        raise ValueError("mean parametrization needs exactly one feature")
    fit = quantum_maxent_fit(fam, [eta], tol=1e-12)
    rho = fit.state
    f = fam.features[0]
    f0 = f - rho.expectation(f) * np.eye(fam.dim)
    image = kernel_apply(rho.spectral, f0, logarithmic_mean_kernel)
    variance = float(np.trace(image @ f0).real)
    return image / variance
