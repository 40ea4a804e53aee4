"""Stochastic maps and numerical certification of metric contraction.

Classical coarse-grainings are row-stochastic matrices acting on
distributions from the right; quantum ones are completely positive maps
given by Kraus operators, unital on the observable side (sum A_k† A_k = I)
and therefore trace preserving on the state side.

A contraction audit pushes a state together with a tangent in the mixture
representation (state perturbations push linearly through the map) and
compares the squared tangent length before and after: sum v^2/p for the
classical fisher metric, Tr[D K(D)] for the monotone quantum metrics of
:data:`.quantum.metrics.METRIC_KERNELS` (gns, f(x) = (1 + x)/2, and bkm,
f(x) = (x - 1)/log x), re-exported here.  Each reduces to sum v^2/p for
commuting inputs and is monotone, so every audited ratio is at most 1 up to
roundoff.

The audit helpers work on stacks: maps, states and tangents carry a leading
trial axis, so a seeded sweep validates and evaluates all of its trials in
one pass, and a single audit is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical.distributions import (
    FAITHFULNESS_FLOOR,
    ClassicalTangent,
    FiniteDistribution,
    check_probabilities,
    mixture_tangent,
)
from .errors import BoundaryError
from .quantum.metrics import METRIC_KERNELS, _kernel_lengths, _metric_kernel
from .quantum.states import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    QuantumTangent,
    check_density,
    compose_density,
    mixture_qtangent,
    project_traceless,
)
from .spectral import (
    SpectralDecomposition,
    _count,
    _identity_residual,
    _known,
    _refuse,
    check_finite,
    dagger,
    hermitian_part,
)

FISHER = "fisher"
GNS = "gns"
BKM = "bkm"

# Matrix entries (trials x dim^2) per stack in one pass of a sweep.  A pass
# then holds about 2 MB of transient arrays whatever the dimension and trial
# count; one pass over 50 trials at dim 32 would hold 14 MB.
_PASS_ENTRIES = 8192

_UNITALITY_TOL = 1e-10
_ROW_SUM_TOL = 1e-12


def _check_stochastic(m: np.ndarray) -> np.ndarray:
    """Validate row-stochastic matrices (..., n_in, n_out); clip them at 0."""
    check_finite(m, "stochastic map has non-finite entries")
    _refuse(m < -1e-15, lambda: -m.min(axis=(-2, -1)),
            lambda i: f"negative transition rate {float(m[i].min())!r}")
    row_err = np.abs(m.sum(axis=-1) - 1.0).max(axis=-1)
    _refuse(row_err > _ROW_SUM_TOL, row_err,
            lambda i: f"rows must sum to 1 (max deviation {row_err[i]:.3e})")
    return np.clip(m, 0.0, None)


def _check_unital(kraus: np.ndarray) -> None:
    """Require finite entries and sum_k A_k† A_k = I for Kraus stacks
    (..., k, d_out, d_in)."""
    check_finite(kraus, "Kraus operators have non-finite entries", 3)
    err = _identity_residual((dagger(kraus) @ kraus).sum(axis=-3))
    _refuse(err > _UNITALITY_TOL, err,
            lambda i: f"Kraus operators are not unital: |sum A†A - I| = {err[i]:.3e}")


@dataclass(frozen=True)
class ClassicalStochasticMap:
    """Row-stochastic matrix: rows index inputs, columns outputs."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"stochastic map must be a matrix, got shape {m.shape}")
        m = _check_stochastic(m)
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
    is enforced: sum A_k† A_k = I to 1e-10.  ``kraus`` is one read-only
    array of shape (k, dim_out, dim_in); iterating it yields the operators.
    """

    kraus: np.ndarray

    def __init__(self, kraus):
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(a.shape != shape for a in ops):
            raise ValueError("Kraus operators must share one 2-d shape")
        ops = np.stack(ops)
        _check_unital(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[-2]


def compose(second, first):
    """The map 'first then second' on states."""
    if isinstance(first, ClassicalStochasticMap):
        return ClassicalStochasticMap(first.matrix @ second.matrix)
    return QuantumCPUnitalMap(
        [b @ a for b in second.kraus for a in first.kraus]
    )


def _push_vectors(matrix: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p S for stacks of row-stochastic S (..., n, m) and vectors p (..., n).

    Each vector is multiplied as a 1 x n row, the rounding of ``p @ S``.
    """
    return (p[..., None, :] @ matrix)[..., 0, :]


def _kraus_push(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_k A_k m A_k† for Kraus stacks (..., k, d_out, d_in), m (..., d_in, d_in).

    The k terms are added in order, the rounding of a sum over the operators.
    """
    return (kraus @ m[..., None, :, :] @ dagger(kraus)).sum(axis=-3)


def push_state(mapping, rho):
    """State-side action: rho S componentwise, or sum A rho A†."""
    if isinstance(mapping, ClassicalStochasticMap):
        p = rho.probs if isinstance(rho, FiniteDistribution) else np.asarray(rho)
        return FiniteDistribution(_push_vectors(mapping.matrix, p), allow_boundary=True)
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return DensityMatrix(_kraus_push(mapping.kraus, m), allow_boundary=True)


def push_observable(mapping, x):
    """Observable-side action: S f componentwise, or sum A† X A."""
    if isinstance(mapping, ClassicalStochasticMap):
        return mapping.matrix @ np.asarray(x, dtype=float)
    x = hermitian_part(x)
    return hermitian_part(_kraus_push(dagger(mapping.kraus), x))


def push_mixture_tangent(mapping, t):
    """Tangents in the mixture representation push exactly like states."""
    if isinstance(mapping, ClassicalStochasticMap):
        v = t.vec if isinstance(t, ClassicalTangent) else np.asarray(t, float)
        return mixture_tangent(_push_vectors(mapping.matrix, v))
    m = t.matrix if isinstance(t, QuantumTangent) else np.asarray(t)
    return mixture_qtangent(project_traceless(_kraus_push(mapping.kraus, m)))


def _squared_lengths(metric: str, spectra, tangents) -> np.ndarray:
    """Squared lengths of mixture tangents at faithful states, stack-shaped:
    probabilities (..., n) and tangents (..., n) for fisher, decompositions
    and tangents (..., d, d) for a quantum metric."""
    if metric == FISHER:
        return (tangents * tangents / spectra).sum(axis=-1)
    return _kernel_lengths(spectra, tangents, _metric_kernel(metric))


def _faithful(spectra) -> np.ndarray:
    """Per state of a stack: is its least probability or eigenvalue above the floor?"""
    if isinstance(spectra, SpectralDecomposition):
        return spectra.eigenvalues.min(axis=-1) > EIGENVALUE_FLOOR
    return spectra.min(axis=-1) > FAITHFULNESS_FLOOR


def _take(x, mask):
    """The entries ``mask`` of a stacked array or stacked decomposition."""
    if isinstance(x, SpectralDecomposition):
        return SpectralDecomposition(x.eigenvalues[mask], x.eigenvectors[mask])
    return x[mask]


def _contraction_ratios(metric: str, ops, states, spectra, tangents):
    """Contraction ratios of stacked (map, faithful state, mixture tangent) triples.

    ``ops`` are row-stochastic matrices (fisher) or Kraus stacks (quantum),
    one per triple; ``spectra`` are the states' probabilities or
    decompositions.  Raises on a zero tangent and on a pushed state with a
    trace error or a negative eigenvalue.  A triple whose pushed state sits at
    or below the faithfulness floor gets no ratio; the returned mask is true
    for the triples that have one.
    """
    before = _squared_lengths(metric, spectra, tangents)
    if np.any(before <= 0.0):
        raise ValueError("zero input tangent has no contraction ratio")
    if metric == FISHER:
        pushed = check_probabilities(_push_vectors(ops, states), allow_boundary=True)
        pushed_tangents = _push_vectors(ops, tangents)
    else:
        _, pushed = check_density(_kraus_push(ops, states), allow_boundary=True)
        pushed_tangents = project_traceless(_kraus_push(ops, tangents))
    faithful = _faithful(pushed)
    if not faithful.all():
        pushed = _take(pushed, faithful)
        pushed_tangents = pushed_tangents[faithful]
        before = before[faithful]
    return _squared_lengths(metric, pushed, pushed_tangents) / before, faithful


def _check_kind(metric: str, obj, kind) -> None:
    if not isinstance(obj, kind):
        raise ValueError(
            f"metric {metric!r} takes a {kind.__name__}, got {type(obj).__name__}"
        )


def _one_pair(metric: str, state, tangent):
    """A state and tangent as stacks of one: (states, spectra, tangents).

    Raises ``ValueError`` unless the state is of the metric's kind, a
    distribution for fisher and a density matrix otherwise, and the tangent
    (a tangent object of the same kind, or its array) has the state's size.
    """
    _known((FISHER, *METRIC_KERNELS), metric, "metric")
    classical = metric == FISHER
    _check_kind(metric, state, FiniteDistribution if classical else DensityMatrix)
    if isinstance(tangent, (ClassicalTangent, QuantumTangent)):
        _check_kind(metric, tangent, ClassicalTangent if classical else QuantumTangent)
        tangent = tangent.vec if classical else tangent.matrix
    v = np.asarray(tangent, dtype=float) if classical else np.asarray(tangent)
    n = state.size if classical else state.dim
    if v.shape != ((n,) if classical else (n, n)):
        raise ValueError(f"tangent has shape {v.shape} but the state has size {n}")
    if classical:
        p = state.probs
        if p.min() <= 0:
            raise BoundaryError("Fisher length undefined at the boundary")
        return p[None], p[None], v[None]
    if state.eigenvalues.min() <= 0:
        raise BoundaryError("metric undefined at the boundary of the state space")
    spectral = SpectralDecomposition(*(f[None] for f in state.spectral))
    return state.matrix[None], spectral, v[None]


def mixture_squared_length(metric: str, state, tangent) -> float:
    """Squared length of a mixture-representation tangent at a state:
    sum v^2/p for fisher, Tr[D K(D)] with the kernel of a quantum metric."""
    _, spectra, tangents = _one_pair(metric, state, tangent)
    return float(_squared_lengths(metric, spectra, tangents)[0])


def audit_metric_contraction(mapping, state, tangent, metric: str) -> float:
    """Ratio of the pushed tangent's squared length to the original.

    Chentsov monotonicity demands a value of at most 1 (up to roundoff) for
    every stochastic map; unitary or permutation maps give exactly 1.
    Raises on a zero input tangent, ``ValueError`` when the map, state or
    tangent is not of the metric's kind (classical for fisher, quantum
    otherwise) or their sizes differ, and :class:`BoundaryError` when the
    pushed state hits the faithfulness floor.
    """
    states, spectra, tangents = _one_pair(metric, state, tangent)
    classical = metric == FISHER
    _check_kind(
        metric, mapping, ClassicalStochasticMap if classical else QuantumCPUnitalMap
    )
    ops = mapping.matrix if classical else mapping.kraus
    n_in = mapping.n_in if classical else mapping.dim_in
    n = states.shape[-1]
    if n_in != n:
        raise ValueError(f"map input has size {n_in} but the state has size {n}")
    ratios, faithful = _contraction_ratios(
        metric, ops[None], states, spectra, tangents
    )
    if not faithful[0]:
        kind = "distribution" if classical else "state"
        raise BoundaryError(f"pushed {kind} is not faithful")
    return float(ratios[0])


def audit_family_info(mapping, fam, theta, metric: str | None = None) -> float:
    """Information of the pushed parametric family over the original.

    Classical families use the Fisher information, whichever of ``fisher``
    or a quantum name is passed; quantum paths, given as (state, derivative)
    at the parameter point, the BKM (default) or GNS information; other
    names raise.  This is :func:`audit_metric_contraction` on the family's
    mixture tangent, except that degenerate families report 0.
    """
    metric = BKM if metric is None else metric
    if isinstance(mapping, ClassicalStochasticMap):
        _known((FISHER, *METRIC_KERNELS), metric, "metric")
        if fam.param_dim != 1:
            raise ValueError("information audit supports one-parameter families")
        theta = np.asarray(theta, dtype=float)
        state = fam.distribution(theta)
        tangent = fam._scores_at(theta, state)[0] * state.probs
        metric = FISHER
    else:
        _metric_kernel(metric)
        state, tangent = fam
    if not np.any(tangent):
        return 0.0
    return audit_metric_contraction(mapping, state, tangent, metric)


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
    _known(("classical", "quantum"), kind, "map kind")
    n_in, n_out = (dims, dims) if np.isscalar(dims) else dims
    if kind == "classical":
        return random_stochastic_map(n_in, n_out, seed)
    return random_cp_unital_map(n_in, n_out, seed=seed)


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a seeded contraction sweep over random (map, state, tangent)."""

    metric: str
    trials: int
    skipped: int
    ratios: np.ndarray
    worst_violation: float

    def histogram(self, bins: int = 20):
        """Counts of the ratios in ``bins`` equal bins over [0, 1].

        A ratio above 1 is a violation, and it is counted too: the last edge
        then moves out to the largest ratio, so the counts always sum to
        ``trials - skipped``.
        """
        edges = np.linspace(0.0, 1.0, bins + 1)
        if len(self.ratios):
            edges[-1] = max(1.0, float(self.ratios.max()))
        return np.histogram(self.ratios, bins=edges)


def _draw_classical(children, dim: int):
    """Each child's (map, state, tangent) draws, stacked in trial order."""
    n, alpha, floor = len(children), np.ones(dim), 1e-6
    maps = np.empty((n, dim, dim))
    probs = np.empty((n, dim))
    vecs = np.empty((n, dim))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        maps[i] = rng.dirichlet(alpha, size=dim)
        probs[i] = rng.dirichlet(alpha)
        vecs[i] = rng.normal(size=dim)
    maps = _check_stochastic(maps)
    probs = check_probabilities(
        (probs + floor) / (1 + dim * floor), allow_boundary=True
    )
    return maps, probs, probs, vecs - vecs.mean(axis=-1, keepdims=True)


def _fill_complex_normal(rng, out: np.ndarray) -> None:
    """Real parts then imaginary parts from standard normal draws."""
    out.real = rng.normal(size=out.shape)
    out.imag = rng.normal(size=out.shape)


def _draw_quantum(children, dim: int):
    """Each child's Kraus set, state and tangent, stacked in trial order.

    A trial draws a complex Gaussian 3d x d matrix (its QR factor, cut into
    three blocks, is the Kraus set), Dirichlet weights and a Gaussian basis
    for the state, and a Gaussian matrix for the tangent.  The state is
    composed from its spectrum: the weights and the QR factor of the basis
    are its decomposition, checked by :func:`.quantum.states.compose_density`
    and never recomputed by an eigensolver.
    """
    n, alpha = len(children), np.ones(dim)
    gauss = np.empty((n, 3 * dim, dim), dtype=complex)
    weights = np.empty((n, dim))
    basis = np.empty((n, dim, dim), dtype=complex)
    raw = np.empty((n, dim, dim), dtype=complex)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        _fill_complex_normal(rng, gauss[i])
        weights[i] = rng.dirichlet(alpha)
        _fill_complex_normal(rng, basis[i])
        _fill_complex_normal(rng, raw[i])
    kraus = np.linalg.qr(gauss)[0].reshape(n, 3, dim, dim)
    del gauss
    _check_unital(kraus)
    weights += 1e-6
    weights /= weights.sum(axis=-1, keepdims=True)
    q = np.linalg.qr(basis)[0]
    del basis
    states, spectra = compose_density(weights, q, allow_boundary=True)
    return kraus, states, spectra, project_traceless(raw)


def _sweep_pass(metric: str, dim: int, children) -> np.ndarray:
    """Ratios of the trials of ``children`` that stay faithful, as one pass."""
    draw = _draw_classical if metric == FISHER else _draw_quantum
    ops, states, spectra, tangents = draw(children, dim)
    faithful = _faithful(spectra)
    if not faithful.all():
        ops, states, tangents = ops[faithful], states[faithful], tangents[faithful]
        spectra = _take(spectra, faithful)
    return _contraction_ratios(metric, ops, states, spectra, tangents)[0]


def run_contraction_audit(
    metric: str, dim: int, trials: int, seed
) -> ContractionReport:
    """Audit ``trials`` random (map, state, tangent) triples for one metric.

    Trial i draws from the i-th child of ``SeedSequence(seed)``; the trials
    are then validated and evaluated as stacks, in passes of at most
    8192 / dim^2 trials (one pass for 50 trials up to dim 12).  A quantum
    pass composes its states from their drawn spectra and decomposes only
    the pushed states, one ``eigh`` per pass.  Trials whose state or pushed
    state hits the faithfulness floor are skipped and counted, never
    silently dropped.  The worst violation max(ratio - 1) should sit at
    roundoff level; anything materially above 0 falsifies monotonicity.

    The sweep is blind to the kernel 1/sqrt((p^2 + q^2)/2) of the r = 2
    power mean, which is not operator monotone: near-unitary qubit channels
    push its ratios above 1, but the sweep finds no violation at d = 2...32
    (seed 7, 50 trials, worst -0.17 to -0.75).
    """
    _known((FISHER, *METRIC_KERNELS), metric, "metric")
    _count(dim, "dim", 2, " (dimension 1 has no nonzero mixture tangent)")
    _count(trials, "trials", 1)
    children = np.random.SeedSequence(seed).spawn(trials)
    size = max(1, _PASS_ENTRIES // dim**2)
    ratios = np.concatenate(
        [_sweep_pass(metric, dim, children[i : i + size])
         for i in range(0, trials, size)]
    )
    worst = float((ratios - 1.0).max()) if len(ratios) else float("-inf")
    return ContractionReport(metric, trials, trials - len(ratios), ratios, worst)
