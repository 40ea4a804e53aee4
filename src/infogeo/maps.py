"""Stochastic maps and numerical certification of metric contraction.

Classical coarse-grainings are row-stochastic matrices acting on
distributions from the right; quantum ones are completely positive maps
given by Kraus operators, unital on the observable side (sum A_k† A_k = I)
and therefore trace preserving on the state side.

A contraction audit pushes a state together with a tangent in the mixture
representation (state perturbations push linearly through the map) and
compares the squared tangent length before and after.  Each metric measures
a mixture tangent through its own kernel inverse in the state eigenbasis:

* fisher (classical):  sum v^2 / p
* gns:                 kernel 2/(p+q)         (Lyapunov inverse)
* bkm:                 kernel (log p - log q)/(p - q)

All three reduce to sum v^2/p for commuting inputs, and all three are
monotone under the respective stochastic maps, so every audited ratio is
at most 1 up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical.distributions import (
    ClassicalTangent,
    FiniteDistribution,
    mixture_tangent,
)
from .errors import BoundaryError
from .quantum.states import (
    DensityMatrix,
    QuantumTangent,
    mixture_qtangent,
    project_traceless,
)
from .spectral import (
    hermitian_part,
    kernel_apply,
    log_difference_kernel,
    symmetric_inverse_kernel,
)

FISHER = "fisher"
GNS = "gns"
BKM = "bkm"

_UNITALITY_TOL = 1e-10
_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ClassicalStochasticMap:
    """Row-stochastic matrix: rows index inputs, columns outputs."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"stochastic map must be a matrix, got shape {m.shape}")
        if np.any(m < -1e-15):
            raise ValueError(f"negative transition rate {m.min()!r}")
        row_err = np.abs(m.sum(axis=1) - 1.0).max()
        if row_err > _ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class QuantumCPUnitalMap:
    """Completely positive map from Kraus operators A_k (dim_out x dim_in).

    Unitality of the observable-side map F(X) = sum A_k† X A_k, equivalently
    trace preservation of the state-side map F*(rho) = sum A_k rho A_k†,
    is enforced: sum A_k† A_k = I to 1e-10.
    """

    kraus: tuple

    def __init__(self, kraus):
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(a.shape != shape for a in ops):
            raise ValueError("Kraus operators must share one 2-d shape")
        total = sum(a.conj().T @ a for a in ops)
        err = np.linalg.norm(total - np.eye(shape[1]))
        if err > _UNITALITY_TOL:
            raise ValueError(
                f"Kraus operators are not unital: |sum A†A - I| = {err:.3e}"
            )
        for a in ops:
            a.setflags(write=False)
        object.__setattr__(self, "kraus", tuple(ops))

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def compose(second, first):
    """The map 'first then second' on states."""
    if isinstance(first, ClassicalStochasticMap):
        return ClassicalStochasticMap(first.matrix @ second.matrix)
    return QuantumCPUnitalMap(
        [b @ a for b in second.kraus for a in first.kraus]
    )


def push_state(mapping, rho):
    """State-side action: rho S componentwise, or sum A rho A†."""
    if isinstance(mapping, ClassicalStochasticMap):
        p = rho.probs if isinstance(rho, FiniteDistribution) else np.asarray(rho)
        out = p @ mapping.matrix
        return FiniteDistribution(out, allow_boundary=True)
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    out = sum(a @ m @ a.conj().T for a in mapping.kraus)
    return DensityMatrix(hermitian_part(out), allow_boundary=True)


def push_observable(mapping, x):
    """Observable-side action: S f componentwise, or sum A† X A."""
    if isinstance(mapping, ClassicalStochasticMap):
        return mapping.matrix @ np.asarray(x, dtype=float)
    x = hermitian_part(x)
    return hermitian_part(sum(a.conj().T @ x @ a for a in mapping.kraus))


def push_mixture_tangent(mapping, t):
    """Tangents in the mixture representation push exactly like states."""
    if isinstance(mapping, ClassicalStochasticMap):
        v = t.vec if isinstance(t, ClassicalTangent) else np.asarray(t, float)
        return mixture_tangent(v @ mapping.matrix)
    m = t.matrix if isinstance(t, QuantumTangent) else np.asarray(t)
    out = sum(a @ m @ a.conj().T for a in mapping.kraus)
    return mixture_qtangent(project_traceless(out))


def mixture_squared_length(metric: str, state, tangent) -> float:
    """Squared length of a mixture-representation tangent at a state.

    Evaluates the named metric through its own correspondence between state
    perturbations and scores, so each value is the metric's information
    content of the perturbation.
    """
    if metric == FISHER:
        p = state.probs
        v = tangent.vec if isinstance(tangent, ClassicalTangent) else tangent
        if p.min() <= 0:
            raise BoundaryError("Fisher length undefined at the boundary")
        return float(np.sum(v * v / p))
    d = tangent.matrix if isinstance(tangent, QuantumTangent) else tangent
    if state.eigenvalues.min() <= 0:
        raise BoundaryError("metric undefined at the boundary of the state space")
    if metric == GNS:
        kern = symmetric_inverse_kernel
    elif metric == BKM:
        kern = log_difference_kernel
    else:
        raise ValueError(f"unknown metric {metric!r}")
    score = kernel_apply(state.spectral, d, kern)
    return float(np.trace(d @ score).real)


def audit_metric_contraction(mapping, state, tangent, metric: str) -> float:
    """Ratio of the pushed tangent's squared length to the original.

    Chentsov monotonicity demands a value of at most 1 (up to roundoff) for
    every stochastic map; unitary or permutation maps give exactly 1.
    Raises on a zero input tangent, and :class:`BoundaryError` when the
    pushed state hits the faithfulness floor.
    """
    before = mixture_squared_length(metric, state, tangent)
    if before <= 0.0:
        raise ValueError("zero input tangent has no contraction ratio")
    pushed_state = push_state(mapping, state)
    if isinstance(pushed_state, FiniteDistribution):
        if not pushed_state.is_faithful():
            raise BoundaryError("pushed distribution is not faithful")
    elif not pushed_state.is_faithful():
        raise BoundaryError("pushed state is not faithful")
    pushed_tangent = push_mixture_tangent(mapping, tangent)
    after = mixture_squared_length(metric, pushed_state, pushed_tangent)
    return after / before


def audit_family_info(mapping, fam, theta, metric: str | None = None) -> float:
    """Information of the pushed parametric family over the original.

    Classical families use the Fisher information; quantum paths, given as
    (state, derivative) at the parameter point, the BKM (default) or GNS
    information; other names raise.  Degenerate families report a ratio of 0.
    """
    kernels = {BKM: log_difference_kernel, GNS: symmetric_inverse_kernel}
    metric = BKM if metric is None else metric
    if metric not in kernels:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {sorted(kernels)}"
        )
    if isinstance(mapping, ClassicalStochasticMap):
        rho = fam.distribution(np.asarray(theta, dtype=float))
        scores = fam.scores(np.asarray(theta, dtype=float))
        if fam.param_dim != 1:
            raise ValueError("information audit supports one-parameter families")
        dp = scores[0] * rho.probs
        before = float(np.sum(dp * dp / rho.probs))
        if before == 0.0:
            return 0.0
        pushed_p = push_state(mapping, rho)
        pushed_dp = dp @ mapping.matrix
        after = float(np.sum(pushed_dp * pushed_dp / pushed_p.probs))
        return after / before
    rho, drho = fam
    kern = kernels[metric]
    before = float(
        np.trace(drho @ kernel_apply(rho.spectral, drho, kern)).real
    )
    if before == 0.0:
        return 0.0
    pushed_rho = push_state(mapping, rho)
    pushed_d = push_mixture_tangent(mapping, drho).matrix
    after = float(
        np.trace(pushed_d @ kernel_apply(pushed_rho.spectral, pushed_d, kern)).real
    )
    return after / before


def random_stochastic_map(n_in: int, n_out: int, seed) -> ClassicalStochasticMap:
    """Rows drawn from the flat Dirichlet distribution on the simplex."""
    rng = np.random.default_rng(seed)
    return ClassicalStochasticMap(rng.dirichlet(np.ones(n_out), size=n_in))


def random_cp_unital_map(
    dim_in: int, dim_out: int | None = None, n_kraus: int = 3, seed=None
) -> QuantumCPUnitalMap:
    """Kraus set carved from a random isometry.

    A complex Gaussian (n_kraus * dim_out) x dim_in matrix is orthonormalized
    by QR; splitting its columns into blocks yields Kraus operators with
    sum A†A = I by construction.
    """
    dim_out = dim_in if dim_out is None else dim_out
    if n_kraus * dim_out < dim_in:
        raise ValueError("isometry needs n_kraus * dim_out >= dim_in")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_kraus * dim_out, dim_in)) + 1j * rng.normal(
        size=(n_kraus * dim_out, dim_in)
    )
    q, _ = np.linalg.qr(g)
    return QuantumCPUnitalMap(
        [q[k * dim_out : (k + 1) * dim_out, :] for k in range(n_kraus)]
    )


def random_map(kind: str, dims, seed):
    """Dispatcher: kind 'classical' (rows, cols) or 'quantum' (d_in, d_out)."""
    if kind == "classical":
        n_in, n_out = (dims, dims) if np.isscalar(dims) else dims
        return random_stochastic_map(n_in, n_out, seed)
    if kind == "quantum":
        d_in, d_out = (dims, dims) if np.isscalar(dims) else dims
        return random_cp_unital_map(d_in, d_out, seed=seed)
    raise ValueError(f"unknown map kind {kind!r}")


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a seeded contraction sweep over random (map, state, tangent)."""

    metric: str
    trials: int
    skipped: int
    ratios: np.ndarray
    worst_violation: float

    def histogram(self, bins: int = 20):
        counts, edges = np.histogram(self.ratios, bins=bins, range=(0.0, 1.0))
        return counts, edges


def _random_faithful_distribution(rng, n):
    p = rng.dirichlet(np.ones(n))
    floor = 1e-6
    return FiniteDistribution((p + floor) / (1 + n * floor))


def _random_faithful_density(rng, dim):
    w = rng.dirichlet(np.ones(dim)) + 1e-6
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return DensityMatrix((q * w) @ q.conj().T)


def run_contraction_audit(
    metric: str, dim: int, trials: int, seed
) -> ContractionReport:
    """Audit ``trials`` random (map, state, tangent) triples for one metric.

    Trials whose pushed state hits the faithfulness floor are skipped and
    counted, never silently dropped.  The worst violation max(ratio - 1)
    should sit at roundoff level; anything materially above 0 falsifies
    monotonicity.
    """
    root = np.random.SeedSequence(seed)
    ratios = []
    skipped = 0
    for child in root.spawn(trials):
        rng = np.random.default_rng(child)
        try:
            if metric == FISHER:
                mapping = ClassicalStochasticMap(
                    rng.dirichlet(np.ones(dim), size=dim)
                )
                state = _random_faithful_distribution(rng, dim)
                v = rng.normal(size=dim)
                tangent = mixture_tangent(v - v.mean())
            else:
                g = rng.normal(size=(3 * dim, dim)) + 1j * rng.normal(
                    size=(3 * dim, dim)
                )
                q, _ = np.linalg.qr(g)
                mapping = QuantumCPUnitalMap(
                    [q[k * dim : (k + 1) * dim, :] for k in range(3)]
                )
                state = _random_faithful_density(rng, dim)
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                tangent = mixture_qtangent(project_traceless(hermitian_part(a)))
            ratios.append(audit_metric_contraction(mapping, state, tangent, metric))
        except BoundaryError:
            skipped += 1
    ratios = np.asarray(ratios)
    worst = float((ratios - 1.0).max()) if len(ratios) else float("-inf")
    return ContractionReport(metric, trials, skipped, ratios, worst)
