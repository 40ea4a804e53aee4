"""Rolling max-entropy projection of linear dynamics onto a feature manifold.

A microstate evolves by exact linear dynamics (a probability-conserving
Markov generator, a Hamiltonian step, or a fixed channel); after every time
step it is replaced by the max-entropy state matching its current
slow-variable means.  The projection preserves the just-measured means by
the moment-matching contract and can only raise the entropy, so the
recorded per-step entropy gain is exactly the information discarded by the
coarse-graining.

Runs are deterministic: identical inputs produce identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical.distributions import FAITHFULNESS_FLOOR, FiniteDistribution, entropy
from .classical.families import ExponentialFamily, _WarmStart, fit_mixture_coords
from .errors import BoundaryError, InfoGeoError
from .maps import QuantumCPUnitalMap, push_state
from .quantum.families import QuantumExponentialFamily, quantum_maxent_fit
from .quantum.states import DensityMatrix, von_neumann_entropy
from .spectral import _count, _real, check_finite, eigh, expm, hermitian_part

# Probability a classical step or propagator column may gain or lose.
_MASS_TOL = 1e-12


@dataclass(frozen=True)
class MarkovGenerator:
    """Probability-conserving rate matrix acting on column distributions.

    Off-diagonal entries are nonnegative rates; every column sums to zero,
    so exp(t Q) is stochastic and d rho/dt = Q rho conserves total mass.
    """

    rates: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rates, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"generator must be square, got shape {q.shape}")
        check_finite(q, "generator has non-finite rates")
        off = q - np.diag(np.diag(q))
        if off.min() < -1e-15:
            raise ValueError(f"negative off-diagonal rate {float(off.min())!r}")
        col_err = np.abs(q.sum(axis=0)).max()
        if col_err > 1e-12:
            raise ValueError(f"columns must sum to 0 (max deviation {col_err:.3e})")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "rates", q)

    @property
    def size(self) -> int:
        return self.rates.shape[0]

    def propagator(self, dt: float) -> np.ndarray:
        """Dense matrix exponential exp(dt Q); compute once, reuse.

        The result is checked to be stochastic: columns summing to 1 within
        the 1e-12 that :func:`micro_step` demands, entries at least -1e-15.
        A generator too stiff for the exponential at this step fails here
        with ``ValueError``, naming the drift and dt times the largest rate.
        """
        _real(dt, "dt", "positive")
        prop = expm(dt * self.rates)
        drift = np.abs(prop.sum(axis=0) - 1.0).max()
        if not (drift <= _MASS_TOL and prop.min() >= -1e-15):
            stiffness = dt * np.abs(self.rates).max()
            raise ValueError(
                f"propagator exp(dt Q) is not stochastic: its columns drift "
                f"{drift:.3e} from 1 and its least entry is {prop.min():.3e} "
                f"(dt times the largest rate is {stiffness:.3e})"
            )
        return prop

    def is_doubly_stochastic(self) -> bool:
        """Rows also sum to zero: the uniform state is stationary."""
        return bool(np.abs(self.rates.sum(axis=1)).max() < 1e-12)


@dataclass(frozen=True)
class HamiltonianStep:
    """Unitary step rho -> U rho U† with U = exp(-i H dt)."""

    hamiltonian: np.ndarray

    def __post_init__(self):
        check_finite(self.hamiltonian, "hamiltonian has non-finite entries")
        h = hermitian_part(self.hamiltonian)
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)

    def unitary(self, dt: float) -> np.ndarray:
        _real(dt, "dt")
        w, u = eigh(self.hamiltonian)
        return (u * np.exp(-1j * dt * w)) @ u.conj().T


def _check_state(state, kind, name: str, size: int) -> None:
    """Raise ``ValueError`` unless the state is a ``kind`` of the dynamics' size."""
    if not isinstance(state, kind):
        raise ValueError(f"state must be a {kind.__name__}, got {type(state).__name__}")
    n = state.size if kind is FiniteDistribution else state.dim
    if n != size:
        raise ValueError(f"{name} has size {size} but the state has size {n}")


def micro_step(state, dynamics, dt: float, propagator=None):
    """One exact step of the linear microdynamics.

    ``dynamics`` is a :class:`MarkovGenerator` (classical), a
    :class:`HamiltonianStep`, or a :class:`QuantumCPUnitalMap` applied once
    per step.  Probability (or trace) is conserved to 1e-12; a state that
    falls below the faithfulness floor raises :class:`BoundaryError`.  A
    state of the wrong kind (a :class:`FiniteDistribution` for a generator,
    a :class:`DensityMatrix` otherwise) or size raises ``ValueError``.

    A Markov step checks its output vector once, here, for everything that
    :func:`.classical.distributions.check_probabilities` tests: a total more
    than 1e-12 from 1 raises :class:`InfoGeoError` ("probability drifted"),
    then a cell at or below the floor :class:`BoundaryError`, then a NaN
    entry ``ValueError``.  The vector becomes a :class:`FiniteDistribution`
    without a second check.

    A unitary step keeps the spectrum and is not re-diagonalised: the
    stepped state's eigenvectors are U V, carried over from the input
    state's decomposition (V, p).  Chaining steps on their own outputs
    therefore accumulates rounding in U^k V, and once U^k V fails the 1e-10
    unitarity check of :meth:`DensityMatrix.from_spectrum` the step raises
    ``ValueError``.  :func:`roll` steps a freshly decomposed projected state
    each time and is not affected.
    """
    _real(dt, "dt", "positive")
    if isinstance(dynamics, MarkovGenerator):
        _check_state(state, FiniteDistribution, "generator", dynamics.size)
        prop = dynamics.propagator(dt) if propagator is None else propagator
        out = prop @ state.probs
        total = out.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise InfoGeoError(f"probability drifted to {float(total)!r}")
        if out.min() <= FAITHFULNESS_FLOOR:
            raise BoundaryError("microdynamics left the faithful interior")
        # a nan entry passes both tests above (its total is nan); any other
        # non-finite entry has failed one of them
        if math.isnan(total):
            raise ValueError("probabilities must be finite")
        return FiniteDistribution._wrap(out)
    if isinstance(dynamics, HamiltonianStep):
        _check_state(state, DensityMatrix, "Hamiltonian", len(dynamics.hamiltonian))
        u = dynamics.unitary(dt) if propagator is None else propagator
        return DensityMatrix.from_spectrum(
            state.eigenvalues, u @ state.spectral.eigenvectors
        )
    if isinstance(dynamics, QuantumCPUnitalMap):
        _check_state(state, DensityMatrix, "channel input", dynamics.dim_in)
        # push_state has validated the pushed state once (boundary allowed);
        # its spectrum decides faithfulness without a second eigh
        out = push_state(dynamics, state)
        if not out.is_faithful():
            raise BoundaryError("channel step left the faithful interior")
        return out
    raise ValueError(f"unsupported dynamics {type(dynamics).__name__}")


@dataclass(frozen=True)
class ProjectionRun:
    """Trajectory of a rolling projection.

    One record per instant (steps + 1 in total, unless truncated): time,
    canonical coordinates, means, entropy of the projected state, and the
    projection defect, i.e. the entropy gained by replacing the microstate
    with its max-entropy projection at fixed means (zero when the family is
    full).  ``truncated`` reports an infeasible projection or boundary hit
    mid-run, with the diagnostic message preserved.
    """

    family: object
    dt: float
    times: np.ndarray
    xis: np.ndarray
    etas: np.ndarray
    entropies: np.ndarray
    defects: np.ndarray
    truncated: bool = False
    diagnostic: str | None = None
    #: which projection the run used; only moment matching (the max-entropy
    #: fit at fixed means) is implemented
    projection_rule: str = "max-entropy moment matching"

    @property
    def steps_completed(self) -> int:
        """Micro steps taken and projected: 0 also when the initial
        projection failed and the run holds no record."""
        return max(len(self.times) - 1, 0)


def _project_classical(family, state, xi0, warm):
    means = family.features @ state.probs
    pt = fit_mixture_coords(family, means, xi0=xi0, _warm=warm)
    projected = pt.distribution()
    return pt.xi, means, projected, entropy(projected), entropy(state)


def _project_quantum(family, state, xi0, warm):
    means = np.trace(state.matrix @ family.features, axis1=1, axis2=2).real
    fit = quantum_maxent_fit(family, means, xi0=xi0, _warm=warm)
    rho = fit.state
    return fit.xi, means, rho, von_neumann_entropy(rho), von_neumann_entropy(state)


def roll(initial_state, dynamics, family, dt: float, steps: int) -> ProjectionRun:
    """Alternate exact micro steps with max-entropy projections.

    Per step: advance the projected state by the microdynamics, measure the
    family's feature means, and replace the state by the family member with
    those exact means (warm-starting each moment-matching solve from the
    previous coordinates).  The initial record is the projection of the
    initial state itself.

    Each solve starts where the previous one stopped, and it reuses that
    solve's last evaluation (log Z, means, Hessian and, for a quantum
    family, the Gibbs spectrum) instead of evaluating there again.
    """
    _real(_count(steps, "steps"), "steps", "nonnegative")
    _real(dt, "dt", "positive")
    classical = isinstance(family, ExponentialFamily)
    if classical and not isinstance(dynamics, MarkovGenerator):
        raise ValueError("classical families require a Markov generator")
    if not classical and not isinstance(family, QuantumExponentialFamily):
        raise ValueError(f"unsupported family {type(family).__name__}")
    if not (classical or isinstance(dynamics, (HamiltonianStep, QuantumCPUnitalMap))):
        raise ValueError("quantum families require a Hamiltonian step or a channel")
    kind = FiniteDistribution if classical else DensityMatrix
    if not isinstance(initial_state, kind):
        raise ValueError(f"initial state must be a {kind.__name__}")
    size = family.omega_size if classical else family.dim
    sizes = {"initial state": initial_state.size if classical else initial_state.dim}
    if classical:
        sizes["generator"] = dynamics.size
    elif isinstance(dynamics, HamiltonianStep):
        sizes["Hamiltonian"] = len(dynamics.hamiltonian)
    else:
        sizes["channel input"] = dynamics.dim_in
        sizes["channel output"] = dynamics.dim_out
    for name, n in sizes.items():
        if n != size:
            raise ValueError(f"{name} has size {n} but the family has size {size}")
    project = _project_classical if classical else _project_quantum
    propagator = None
    if isinstance(dynamics, MarkovGenerator):
        propagator = dynamics.propagator(dt)
    elif isinstance(dynamics, HamiltonianStep):
        propagator = dynamics.unitary(dt)

    times, xis, etas, entropies, defects = [], [], [], [], []
    truncated = False
    diagnostic = None
    xi = np.zeros(family.n_features, dtype=float)
    warm = _WarmStart()
    state = initial_state
    for k in range(steps + 1):
        if k > 0:
            try:
                state = micro_step(state, dynamics, dt, propagator=propagator)
            except (BoundaryError, InfoGeoError) as exc:
                truncated, diagnostic = True, f"micro step {k}: {exc}"
                break
        try:
            xi, means, state, proj_entropy, micro_entropy = project(
                family, state, xi, warm
            )
        except InfoGeoError as exc:
            truncated, diagnostic = True, f"projection at step {k}: {exc}"
            break
        times.append(k * dt)
        xis.append(np.asarray(xi, dtype=float))
        etas.append(means)
        entropies.append(proj_entropy)
        defects.append(proj_entropy - micro_entropy)
    n = family.n_features
    return ProjectionRun(
        family,
        dt,
        np.asarray(times),
        np.asarray(xis).reshape(-1, n),
        np.asarray(etas).reshape(-1, n),
        np.asarray(entropies),
        np.asarray(defects),
        truncated,
        diagnostic,
    )


def entropy_production(run: ProjectionRun) -> np.ndarray:
    """Entropy of the projected state at each recorded instant.

    For doubly stochastic classical generators the series is nondecreasing:
    the micro step cannot lower entropy (uniform is stationary) and the
    projection maximizes it at fixed means.
    """
    return run.entropies.copy()
