"""Faithful density matrices and their tangent representations.

Tangents at a state come in the mixture picture (a traceless Hermitian
perturbation of the matrix) and the score picture (a Hermitian observable
with zero mean in the state).  The pictures are linked by the noncommutative
analogue of multiplication by the state: the logarithmic-mean kernel in the
eigenbasis.  This makes the pairing trace(mixture . score) equal to the BKM
inner product of the scores, mirroring the classical v = rho * x relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BoundaryError
from ..spectral import (
    SpectralDecomposition,
    any_set,
    at_index,
    eigh,
    hermitian_part,
    kernel_apply,
    log_difference_kernel,
    log_sum_exp,
    logarithmic_mean_kernel,
    worst_index,
)

#: States with an eigenvalue at or below this are rejected unless the
#: operation documents a boundary override.
EIGENVALUE_FLOOR = 1e-14

_TRACE_TOL = 1e-12

MIXTURE = "mixture"
SCORE = "score"


def _check_one_matrix(matrix):
    if np.ndim(matrix) != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(matrix)}")


def check_density(matrix, allow_boundary: bool = False):
    """Validate a density matrix, or a stack of them, and decompose it.

    Returns the Hermitian part and its :class:`SpectralDecomposition`.  Every
    matrix must have unit trace (ValueError).  With ``allow_boundary`` an
    eigenvalue below -1e-12 raises ValueError; without it, one at or below
    :data:`EIGENVALUE_FLOOR` raises :class:`BoundaryError`.  In a stack the
    message names the index of the worst matrix.
    """
    m = hermitian_part(matrix)
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if any_set(abs(tr - 1.0) > _TRACE_TOL):
        i = worst_index(abs(tr - 1.0))
        raise ValueError(f"{at_index(i)}trace is {float(tr[i])!r}, not 1")
    dec = eigh(m)
    lo = dec.eigenvalues.min(axis=-1)
    if allow_boundary:
        if any_set(lo < -1e-12):
            i = worst_index(-lo)
            raise ValueError(f"{at_index(i)}negative eigenvalue {float(lo[i])!r}")
    elif any_set(lo <= EIGENVALUE_FLOOR):
        i = worst_index(-lo)
        raise BoundaryError(
            f"{at_index(i)}state is not faithful: min eigenvalue "
            f"{float(lo[i])!r} <= {EIGENVALUE_FLOOR}; pass allow_boundary=True "
            f"where supported"
        )
    return m, dec


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-one matrix with its spectral decomposition cached.

    Faithful (positive definite) by default; ``allow_boundary`` admits
    eigenvalues down to 0 for operations that extend continuously there
    (entropy, mixing).
    """

    matrix: np.ndarray
    allow_boundary: bool = False

    def __post_init__(self):
        _check_one_matrix(self.matrix)
        m, dec = check_density(self.matrix, self.allow_boundary)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectral", dec)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral(self) -> SpectralDecomposition:
        return self._spectral

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectral.eigenvalues

    def is_faithful(self) -> bool:
        return bool(self.eigenvalues.min() > EIGENVALUE_FLOOR)

    def expectation(self, x: np.ndarray) -> float:
        return float(np.trace(self.matrix @ x).real)


def gibbs_spectrum(h: np.ndarray):
    """Spectrum of the Gibbs state exp(-H)/Z: ``(dec, log_p, log_z)``.

    ``dec`` is the decomposition of H with eigenvalues w, log Z is the
    max-shifted :func:`..spectral.log_sum_exp` of -w, and log p = -w - log Z
    stays finite where the weights p = exp(log p) underflow.  Every Gibbs
    normalisation in the package goes through here.
    """
    dec = eigh(h)
    log_z = log_sum_exp(-dec.eigenvalues)
    return dec, -dec.eigenvalues - log_z, log_z


def gibbs_density(dec: SpectralDecomposition, p: np.ndarray) -> DensityMatrix:
    """The state sum_i p_i |u_i><u_i| for Gibbs weights p in the eigenbasis of H.

    ``dec`` is the decomposition of H and p = exp(-w)/Z its normalised
    weights.  A spectrum so wide that the smallest weight reaches the
    faithfulness floor raises :class:`BoundaryError` naming the spread.
    """
    u = dec.eigenvectors
    try:
        return DensityMatrix((u * p) @ u.conj().T)
    except BoundaryError as exc:
        w = dec.eigenvalues
        raise BoundaryError(
            f"Gibbs state exp(-H)/Z is not faithful: the eigenvalues of H "
            f"spread over {w[-1] - w[0]:.6g}, so its smallest weight "
            f"{p.min():.3e} is at or below the floor {EIGENVALUE_FLOOR} "
            f"(spreads above about -log({EIGENVALUE_FLOOR}) = "
            f"{-np.log(EIGENVALUE_FLOOR):.1f} reach it)"
        ) from exc


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


def project_traceless(x: np.ndarray) -> np.ndarray:
    """Remove the trace component of a Hermitian matrix or of a stack."""
    x = hermitian_part(x)
    d = x.shape[-1]
    tr = np.trace(x, axis1=-2, axis2=-1).real
    return x - (tr / d)[..., None, None] * np.eye(d)


def gauge_fix_score(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    """Resolve the additive-constant ambiguity: subtract the rho-mean times I.

    Applied centrally wherever a score enters, so every score has exactly
    zero expectation in its base state.
    """
    x = hermitian_part(x)
    return x - rho.expectation(x) * np.eye(rho.dim)


@dataclass(frozen=True)
class QuantumTangent:
    """Tangent in the mixture (traceless) or score (zero-mean) picture.

    Tracelessness of mixture tangents is validated here; the zero-mean
    condition of scores involves the base state and is enforced by the
    operations that receive one.
    """

    rep: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.rep not in (MIXTURE, SCORE):
            raise ValueError(f"unknown representation {self.rep!r}")
        _check_one_matrix(self.matrix)
        m = hermitian_part(self.matrix)
        if self.rep == MIXTURE:
            tr = abs(np.trace(m).real)
            scale = max(1.0, float(np.abs(m).max()))
            if tr > _TRACE_TOL * scale:
                raise ValueError(f"mixture tangent must be traceless, trace {tr!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def mixture_qtangent(matrix) -> QuantumTangent:
    return QuantumTangent(MIXTURE, matrix)


def score_qtangent(matrix) -> QuantumTangent:
    return QuantumTangent(SCORE, matrix)


def quantum_tangent_convert(
    rho: DensityMatrix, t: QuantumTangent, target_rep: str
) -> QuantumTangent:
    """Convert between the mixture and score pictures at the base state rho.

    score -> mixture applies the logarithmic-mean kernel (whose result is
    automatically traceless for a centered score); mixture -> score applies
    the reciprocal kernel and re-centers.  The round trip is the identity,
    and trace(mixture(x) . y) equals the BKM product of the scores x, y.
    """
    if t.dim != rho.dim:
        raise ValueError(f"tangent dim {t.dim} != state dim {rho.dim}")
    if target_rep not in (MIXTURE, SCORE):
        raise ValueError(f"unknown representation {target_rep!r}")
    if t.rep == target_rep:
        return t
    if t.rep == SCORE:
        x = gauge_fix_score(rho, t.matrix)
        m = kernel_apply(rho.spectral, x, logarithmic_mean_kernel)
        return QuantumTangent(MIXTURE, project_traceless(m))
    x = kernel_apply(rho.spectral, t.matrix, log_difference_kernel)
    return QuantumTangent(SCORE, gauge_fix_score(rho, x))


def von_neumann_entropy(rho) -> float:
    """-Tr rho log rho, with 0 log 0 = 0; defined on the whole state space."""
    if isinstance(rho, DensityMatrix):
        w = rho.eigenvalues
    else:
        w = eigh(rho).eigenvalues
    w = np.clip(w, 0.0, None)
    mask = w > 0
    return float(-(w[mask] * np.log(w[mask])).sum())


def binary_entropy(lam: float) -> float:
    return float(-lam * np.log(lam) - (1 - lam) * np.log(1 - lam))


@dataclass(frozen=True)
class MixtureEntropyReport:
    """Entropy of a mixture against its concavity-plus-mixing bound."""

    lhs: float
    rhs: float
    slack: float


def mixture_entropy_bound(
    rho: DensityMatrix, sigma: DensityMatrix, lam: float
) -> MixtureEntropyReport:
    """Check S(lam rho + (1-lam) sigma) <= lam S(rho) + (1-lam) S(sigma) + h(lam).

    h is the binary entropy of the mixing weight.  Boundary states are
    allowed; the entropy extends continuously.  The slack rhs - lhs is
    nonnegative, equals h(lam) when rho = sigma, and vanishes for orthogonal
    pure states mixed at lam = 1/2.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError(f"mixing weight must lie in (0, 1), got {lam!r}")
    if rho.dim != sigma.dim:
        raise ValueError("states have different dimensions")
    mixed = lam * rho.matrix + (1.0 - lam) * sigma.matrix
    lhs = von_neumann_entropy(mixed)
    rhs = (
        lam * von_neumann_entropy(rho)
        + (1.0 - lam) * von_neumann_entropy(sigma)
        + binary_entropy(lam)
    )
    return MixtureEntropyReport(lhs, rhs, rhs - lhs)
