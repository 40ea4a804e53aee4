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

from ..classical.distributions import entropy
from ..errors import BoundaryError
from ..spectral import (
    _RECONSTRUCTION_RTOL,
    SpectralDecomposition,
    _known,
    _refuse,
    check_finite,
    dagger,
    eigh,
    hermitian_part,
    kernel_apply,
    log_difference_kernel,
    log_sum_exp,
    logarithmic_mean_kernel,
    unitarity_residual,
)

#: States with an eigenvalue at or below this are rejected unless the
#: operation documents a boundary override.
EIGENVALUE_FLOOR = 1e-14

_TRACE_TOL = 1e-12
# Weights beyond this over d would overflow the Hermitian part or its trace.
_WEIGHT_LIMIT = np.finfo(float).max / 4

MIXTURE = "mixture"
SCORE = "score"


def _check_one_matrix(matrix):
    if np.ndim(matrix) != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(matrix)}")


def _check_trace(m):
    # the diagonal sum that np.trace forms, bitwise, without its dispatch cost
    tr = m.diagonal(0, -2, -1).sum(-1).real
    dev = abs(tr - 1.0)
    _refuse(dev > _TRACE_TOL, dev,
            lambda i: f"trace is {float(tr[i])!r}, not 1")


def _check_floor(lo, allow_boundary: bool):
    """Reject least eigenvalues ``lo`` (one per matrix) below what is allowed."""
    if allow_boundary:
        _refuse(lo < -1e-12, lambda: -lo,
                lambda i: f"negative eigenvalue {float(lo[i])!r}")
    else:
        _refuse(lo <= EIGENVALUE_FLOOR, lambda: -lo, lambda i: (
            f"state is not faithful: min eigenvalue {float(lo[i])!r} <= "
            f"{EIGENVALUE_FLOOR}; pass allow_boundary=True where supported"
        ), BoundaryError)


def check_density(matrix, allow_boundary: bool = False):
    """Validate a density matrix, or a stack of them, and decompose it.

    Returns the Hermitian part and its :class:`SpectralDecomposition`.  Every
    matrix must have unit trace (ValueError).  With ``allow_boundary`` an
    eigenvalue below -1e-12 raises ValueError; without it, one at or below
    :data:`EIGENVALUE_FLOOR` raises :class:`BoundaryError`.  In a stack the
    message names the index of the worst matrix.
    """
    m = hermitian_part(matrix)
    _check_trace(m)
    dec = eigh(m)
    _check_floor(dec.eigenvalues.min(axis=-1), allow_boundary)
    return m, dec


def compose_density(p, u, allow_boundary: bool = False):
    """The states sum_i p_i |u_i><u_i| of spectra in hand, one or a stack.

    The inverse of :func:`check_density`, with the same ``(m, dec)`` result:
    weights p of shape (..., d) and vectors u of shape (..., d, d) give the
    Hermitian parts m of (u p) u† and keep (p, u), sorted ascending by a
    stable sort, as their decomposition.  The checks run once per matrix, in
    this order: the shapes, finite p, no weight so large (above 4.49e307 / d)
    that the trace would overflow, finite u, u unitary to the 1e-10 that
    :func:`..spectral.eigh` demands (so the kept decomposition is a
    validated one), finite entries of m, unit trace, then the floor of
    :func:`check_density` on p or, with ``allow_boundary``, its sign.  In a
    stack the message names the index of the worst matrix.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=complex)
    if p.ndim < 1 or u.shape != p.shape + p.shape[-1:]:
        raise ValueError(
            f"expected d weights and d x d vectors per matrix, got shapes "
            f"{p.shape} and {u.shape}"
        )
    # a unitary u keeps every entry of the Hermitian part, and the trace,
    # within 2d times the largest weight; nan fails the test too, and then
    # check_finite (which returns None) names a non-finite entry instead
    top = np.maximum.reduce(abs(p), axis=-1, initial=0.0)
    _refuse(~(top <= _WEIGHT_LIMIT / max(p.shape[-1], 1)), top, lambda i: (
        check_finite(p, "weights have non-finite entries", 1)
        or f"weights up to {float(top[i])!r} overflow the trace"))
    # no entry of a unitary exceeds 1, so larger ones (which could overflow
    # U†U) are refused first; nan fails the test too
    big = np.maximum.reduce(abs(u), axis=(-2, -1), initial=0.0)
    _refuse(~(big <= 1.0 + _RECONSTRUCTION_RTOL), big, lambda i: (
        check_finite(u, "eigenvectors have non-finite entries")
        or f"eigenvectors are not unitary: an entry of modulus {float(big[i]):.3e}"))
    unit_err = unitarity_residual(u)
    _refuse(unit_err > _RECONSTRUCTION_RTOL, unit_err,
            lambda i: f"eigenvectors are not unitary: residual {unit_err[i]:.3e}")
    return _compose(p, u, allow_boundary)


def _compose(p, u, allow_boundary: bool):
    """:func:`compose_density` for float weights and complex vectors of
    matching shapes, with u already known to be unitary."""
    x = (u * p[..., None, :]) @ dagger(u)
    m = 0.5 * (x + dagger(x))  # hermitian_part(x), x being complex and square
    check_finite(m, "matrix has non-finite entries")
    _check_trace(m)
    order = np.argsort(p, axis=-1, kind="stable")
    if p.ndim == 1:
        # plain indexing, and a scalar least weight: the hot one-state path
        w, v = p[order], u[:, order]
        lo = w[0]
    else:
        w = np.take_along_axis(p, order, axis=-1)
        v = np.take_along_axis(u, order[..., None, :], axis=-1)
        lo = w[..., 0]
    _check_floor(lo, allow_boundary)
    return m, SpectralDecomposition(w, v)


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
        self._set(m, dec)

    def _set(self, m, dec):
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectral", dec)

    @classmethod
    def from_spectrum(cls, p, u, allow_boundary: bool = False) -> "DensityMatrix":
        """The state sum_i p_i |u_i><u_i| of a spectrum already in hand.

        :func:`compose_density` for one matrix: it builds the Hermitian part
        of (u p) u† and keeps (p, u), sorted ascending, as its decomposition
        instead of decomposing it again, after the checks listed there
        (finite p and u, weights small enough that the trace cannot
        overflow, u unitary to the 1e-10 that :func:`..spectral.eigh`
        demands, finite entries, unit trace, the floor or with
        ``allow_boundary`` the sign).
        """
        _check_one_matrix(u)
        return cls._wrap(*compose_density(p, u, allow_boundary), allow_boundary)

    @classmethod
    def _from_unitary(cls, p, u, allow_boundary: bool = False) -> "DensityMatrix":
        """:meth:`from_spectrum` for d weights p and a d x d complex u that
        is already known to be unitary, such as the eigenvectors that
        :func:`..spectral.eigh` has just validated; every other check runs."""
        return cls._wrap(*_compose(p, u, allow_boundary), allow_boundary)

    @classmethod
    def _wrap(cls, m, dec, allow_boundary: bool) -> "DensityMatrix":
        state = object.__new__(cls)
        object.__setattr__(state, "allow_boundary", allow_boundary)
        state._set(m, dec)
        return state

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


def gibbs_moments(dec: SpectralDecomposition, log_p: np.ndarray, ops: np.ndarray):
    """Weights p, means and BKM covariance of Hermitian ``ops`` (n, d, d).

    The one BKM kernel at a Gibbs spectrum (dec, log p) of
    :func:`gibbs_spectrum`, the Hessian of log Z for the quantum fit and the
    Kubo-Mori check alike.  With C_j = U†F_jU - eta_j in the eigenbasis and
    L the logarithmic mean of p, the covariance is sum_ab L_ab C_j,ab
    conj(C_l,ab), one product over the stack.  L(e^a, e^b) = e^b expm1(a -
    b)/(a - b) with b >= a (e^a at a = b) is taken from log p, so it stays
    finite where p underflows.  The factor e^b is max(p_a, p_b) of the p
    already formed (exp is monotone), and the quotient is 1 where a = b and
    is divided only elsewhere.  Nothing is checked here: ``dec`` comes
    validated from :func:`..spectral.eigh`, and log p is finite.
    """
    p = np.exp(log_p)
    u = dec.eigenvectors
    centered = (dagger(u) @ ops @ u).reshape(len(ops), -1)
    diagonals = centered[:, :: dec.dim + 1]
    means = (p * diagonals.real).sum(axis=-1)
    diagonals -= means[:, None]
    col = log_p[:, None]
    x = np.minimum(col, log_p) - np.maximum(col, log_p)
    ratio = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    k = np.maximum(p[:, None], p[None, :]) * ratio
    cov = ((k.reshape(-1) * centered) @ centered.conj().T).real
    return p, means, 0.5 * (cov + cov.T)


def gibbs_density(dec: SpectralDecomposition, p: np.ndarray) -> DensityMatrix:
    """The state sum_i p_i |u_i><u_i| for Gibbs weights p in the eigenbasis of H.

    ``dec`` is the decomposition of H that :func:`gibbs_spectrum` returned
    and p = exp(-w)/Z its normalised weights.  The state keeps (p, u) as its
    decomposition: H has been decomposed, so the state is not.  The
    finiteness, trace and floor checks of :meth:`DensityMatrix.from_spectrum`
    run; the unitarity of u does not, because :func:`..spectral.eigh` has
    just checked it.  A spectrum so wide that the smallest weight reaches the
    faithfulness floor raises :class:`BoundaryError` naming the spread.
    """
    try:
        return DensityMatrix._from_unitary(p, dec.eigenvectors)
    except BoundaryError as exc:
        w = dec.eigenvalues
        raise BoundaryError(
            f"Gibbs state exp(-H)/Z is not faithful: the eigenvalues of H "
            f"spread over {w[-1] - w[0]:.6g}, so its smallest weight "
            f"{p.min():.3e} is at or below the floor {EIGENVALUE_FLOOR} "
            f"(spreads above about -log({EIGENVALUE_FLOOR}) = "
            f"{-np.log(EIGENVALUE_FLOOR):.1f} reach it)"
        ) from exc


def gibbs_state(h: np.ndarray) -> tuple[DensityMatrix, float]:
    """Normalized exp(-H) and log Tr exp(-H), overflow-safe."""
    dec, log_p, log_z = gibbs_spectrum(h)
    return gibbs_density(dec, np.exp(log_p)), log_z


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
        _known((MIXTURE, SCORE), self.rep, "representation")
        _check_one_matrix(self.matrix)
        m = hermitian_part(self.matrix)
        if self.rep == MIXTURE:
            tr = float(abs(np.trace(m).real))
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
    _known((MIXTURE, SCORE), target_rep, "representation")
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
    return entropy(np.maximum(w, 0.0))


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
