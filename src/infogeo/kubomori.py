"""Perturbation expansion of the quantum Massieu function at finite dimension.

The n-point correlation of a perturbation V in the Gibbs state of H0 is the
simplex-averaged trace

    I_n = integral over {a_i >= 0, sum a_i = 1} of
          Tr[rho^{a_1} V_1 ... rho^{a_n} V_n].

In the eigenbasis of rho, the exponential of the block-bidiagonal matrix with
diag(log p) on its n+1 diagonal blocks and V_1, ..., V_n just above them holds
in block (0, k) the iterated Duhamel integral of rho^{s_0} V_1 ... V_k
rho^{s_k} over {s_0 + ... + s_k = 1} (Van Loan, IEEE TAC 23, 1978; Najfeld &
Havel, Adv. Appl. Math. 16, 1995).  Under the trace the cyclic endpoints s_0
and s_n merge into a_1, which then weights the integrand of I_n, so I_n is
the block-(0, n) trace summed over the n cyclic rotations of the arguments
(sum a_i = 1).  With -V in every slot the same traces expand

    Z_V / Z_0 = 1 + sum_{n >= 1} (-1)^n I_n / n,

where log p on the diagonal makes Z_0 = 1, so nothing overflows.  Taking the
formal logarithm order by order gives the cumulant (connected) contributions
whose partial sums converge to log Z_V.  The sign and normalization
conventions are pinned numerically by the exact log Z in
:func:`expand_log_z` and by its derivative checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# gibbs_state (the H0 state of a series) is re-exported from quantum.states
from .quantum.states import DensityMatrix, gibbs_moments, gibbs_spectrum, gibbs_state
# _duhamel_traces looks expm up in this module, so a test or a profiler can
# count the exponentials by rebinding kubomori.expm
from .spectral import _count, expm, hermitian_part

MAX_POINTS = 8
MAX_ORDER = 6
_DERIVATIVE_STEP = 0.01

#: Sign and normalization convention of the expansion, pinned numerically
#: against the exact log Z and carried in report metadata.
SERIES_CONVENTION = (
    "Z_V/Z_0 = 1 + sum_{n>=1} (-1)^n I_n / n with I_n the simplex-averaged "
    "n-point trace; log collected order by order (connected parts)"
)


def _duhamel_traces(log_p: np.ndarray, vt) -> np.ndarray:
    """Traces of the blocks (0, k), k = 0..n, of exp(M), with M holding
    diag(log_p) on its n+1 diagonal blocks and the eigenbasis perturbations
    ``vt`` on the blocks just above them (see the module docstring)."""
    d, n = log_p.size, len(vt)
    m = np.zeros(((n + 1) * d, (n + 1) * d), dtype=complex)
    m[np.diag_indices_from(m)] = np.tile(log_p, n + 1)
    for k, v in enumerate(vt):
        m[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = v
    return np.einsum("iki->k", expm(m)[:d].reshape(d, n + 1, d))


def kubo_n_point(rho0: DensityMatrix, vs) -> float:
    """Simplex-averaged n-point trace of the perturbations ``vs`` in rho0.

    Cyclic in its arguments and linear in each slot.  The value is real for
    argument lists symmetric under reversal (in particular when all entries
    coincide); a materially complex result is rejected.  Costs n ``expm``
    calls of size (n+1)d, one per cyclic rotation; n <= :data:`MAX_POINTS`.
    """
    mats = [hermitian_part(v) for v in vs]
    n = len(mats)
    if n < 1:
        raise ValueError("need at least one perturbation")
    if n > MAX_POINTS:
        raise ValueError(f"n-point functions limited to n <= {MAX_POINTS}")
    d = rho0.dim
    for v in mats:
        if v.shape != (d, d):
            raise ValueError(f"perturbation shape {v.shape} != ({d}, {d})")
    u = rho0.spectral.eigenvectors
    log_p = np.log(rho0.eigenvalues)
    vt = [u.conj().T @ v @ u for v in mats]

    val = complex(sum(_duhamel_traces(log_p, vt[r:] + vt[:r])[n] for r in range(n)))
    if abs(val.imag) > 1e-9 * (abs(val.real) + 1.0):
        raise ValueError(
            f"n-point value has imaginary part {val.imag:.3e}; the argument "
            f"list is not reversal symmetric"
        )
    return float(val.real)


@dataclass(frozen=True)
class PerturbationProblem:
    """A Gibbs state of H0 perturbed by V, expanded to ``max_order``."""

    h0: np.ndarray
    v: np.ndarray
    max_order: int = 4

    def __post_init__(self):
        h0 = hermitian_part(self.h0)
        v = hermitian_part(self.v)
        if v.shape != h0.shape:
            raise ValueError(f"shape mismatch: H0 {h0.shape}, V {v.shape}")
        max_order = _count(self.max_order, "max_order")
        if not (1 <= max_order <= MAX_ORDER):
            raise ValueError(f"max_order must lie in 1..{MAX_ORDER}")
        h0.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "max_order", max_order)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


@dataclass(frozen=True)
class SeriesReport:
    """Per-order contributions to log Z_V with exact truncation errors.

    ``terms[0]`` is log Z_0; ``terms[k]`` the order-k cumulant.  Partial
    sums accumulate the terms, and ``truncation_errors[k]`` is the absolute
    deviation of partial_sums[k] from the exact log Z_V.  ``diverged`` flags
    growing terms with worsening truncation, the signature of a perturbation
    too large for the expansion.
    """

    exact_log_z: float
    terms: np.ndarray
    partial_sums: np.ndarray
    truncation_errors: np.ndarray
    diverged: bool


def expand_log_z(prob: PerturbationProblem) -> SeriesReport:
    """Kubo-Mori expansion of log Z_V against the exact spectral value."""
    dec, log_p, log_z0 = gibbs_spectrum(prob.h0)
    exact = gibbs_spectrum(prob.h0 + prob.v)[2]

    # z[n] = (-1)^n I_n / n: block (0, n) with -V in every slot
    n_max = prob.max_order
    vt = -(dec.eigenvectors.conj().T @ prob.v @ dec.eigenvectors)
    z = _duhamel_traces(log_p, [vt] * n_max).real
    c = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        c[n] = z[n] - sum(k * c[k] * z[n - k] for k in range(1, n)) / n

    terms = np.concatenate([[log_z0], c[1:]])
    partials = np.cumsum(terms)
    errors = np.abs(partials - exact)
    diverged = bool(
        n_max >= 2
        and abs(terms[-1]) > abs(terms[-2])
        and errors[-1] > errors[-2]
    )
    return SeriesReport(exact, terms, partials, errors, diverged)


@dataclass(frozen=True)
class DerivativeCheck:
    """Residuals of the first two t-derivatives of log Z_{tV} at t = 0."""

    first: float
    second: float


def massieu_derivative_check(prob: PerturbationProblem) -> DerivativeCheck:
    """Check mean and metric against derivatives of the exact log Z.

    The first derivative of log Z_{tV} at t = 0 must equal minus the mean
    of V, and the second must equal the BKM norm of the centered V; both
    are taken by fourth-order central differences (step 0.01) of the exact log Z.
    Mean and norm come from :func:`.quantum.states.gibbs_moments` at the
    spectrum of H0, which works from log p = -w - log Z, so spectra too wide
    for a faithful density matrix still check.
    """
    h = _DERIVATIVE_STEP
    dec, log_p, g_0 = gibbs_spectrum(prob.h0)

    def g(t: float) -> float:
        return gibbs_spectrum(prob.h0 + t * prob.v)[2]

    g_m2, g_m1, g_p1, g_p2 = (g(t) for t in (-2 * h, -h, h, 2 * h))
    d1 = (g_m2 - 8 * g_m1 + 8 * g_p1 - g_p2) / (12 * h)
    d2 = (-g_m2 + 16 * g_m1 - 30 * g_0 + 16 * g_p1 - g_p2) / (12 * h * h)

    _, (mean,), ((metric,),) = gibbs_moments(dec, log_p, prob.v[None])
    return DerivativeCheck(first=float(abs(d1 + mean)), second=float(abs(d2 - metric)))
