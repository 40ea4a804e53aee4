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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .classical.distributions import FAITHFULNESS_FLOOR, FiniteDistribution, entropy
from .classical.families import ExponentialFamily, fit_mixture_coords
from .errors import BoundaryError, InfoGeoError
from .maps import QuantumCPUnitalMap, push_state
from .quantum.families import QuantumExponentialFamily, quantum_maxent_fit
from .quantum.states import DensityMatrix, von_neumann_entropy
from .spectral import hermitian_part


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
        off = q - np.diag(np.diag(q))
        if off.min() < -1e-15:
            raise ValueError(f"negative off-diagonal rate {off.min()!r}")
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
        """Dense matrix exponential exp(dt Q); compute once, reuse."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        return expm(dt * self.rates)

    def is_doubly_stochastic(self) -> bool:
        """Rows also sum to zero: the uniform state is stationary."""
        return bool(np.abs(self.rates.sum(axis=1)).max() < 1e-12)


@dataclass(frozen=True)
class HamiltonianStep:
    """Unitary step rho -> U rho U† with U = exp(-i H dt)."""

    hamiltonian: np.ndarray

    def __post_init__(self):
        h = hermitian_part(self.hamiltonian)
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)

    def unitary(self, dt: float) -> np.ndarray:
        w, u = np.linalg.eigh(self.hamiltonian)
        return (u * np.exp(-1j * dt * w)) @ u.conj().T


def micro_step(state, dynamics, dt: float, propagator=None):
    """One exact step of the linear microdynamics.

    ``dynamics`` is a :class:`MarkovGenerator` (classical), a
    :class:`HamiltonianStep`, or a :class:`QuantumCPUnitalMap` applied once
    per step.  Probability (or trace) is conserved to 1e-12; a state that
    falls below the faithfulness floor raises :class:`BoundaryError`.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(dynamics, MarkovGenerator):
        p = state.probs if isinstance(state, FiniteDistribution) else np.asarray(state)
        prop = dynamics.propagator(dt) if propagator is None else propagator
        out = prop @ p
        if abs(out.sum() - 1.0) > 1e-12:
            raise InfoGeoError(f"probability drifted to {out.sum()!r}")
        if out.min() <= FAITHFULNESS_FLOOR:
            raise BoundaryError("microdynamics left the faithful interior")
        return FiniteDistribution(out)
    if isinstance(dynamics, HamiltonianStep):
        u = dynamics.unitary(dt) if propagator is None else propagator
        return DensityMatrix(u @ state.matrix @ u.conj().T)
    if isinstance(dynamics, QuantumCPUnitalMap):
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
        return len(self.times) - 1


def _project_classical(family, state, xi0):
    means = family.features @ state.probs
    pt = fit_mixture_coords(family, means, xi0=xi0)
    return pt.xi, means, pt.distribution(), entropy(state)


def _project_quantum(family, state, xi0):
    means = np.array(
        [float(np.trace(state.matrix @ f).real) for f in family.features]
    )
    fit = quantum_maxent_fit(family, means, xi0=xi0)
    return fit.xi, means, fit.state, von_neumann_entropy(state)


def roll(initial_state, dynamics, family, dt: float, steps: int) -> ProjectionRun:
    """Alternate exact micro steps with max-entropy projections.

    Per step: advance the projected state by the microdynamics, measure the
    family's feature means, and replace the state by the family member with
    those exact means (warm-starting each moment-matching solve from the
    previous coordinates).  The initial record is the projection of the
    initial state itself.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    classical = isinstance(family, ExponentialFamily)
    if classical and not isinstance(dynamics, MarkovGenerator):
        raise ValueError("classical families require a Markov generator")
    if not classical and not isinstance(family, QuantumExponentialFamily):
        raise ValueError(f"unsupported family {type(family).__name__}")
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
    state = initial_state
    for k in range(steps + 1):
        if k > 0:
            try:
                state = micro_step(state, dynamics, dt, propagator=propagator)
            except (BoundaryError, InfoGeoError) as exc:
                truncated, diagnostic = True, f"micro step {k}: {exc}"
                break
        try:
            xi, means, projected, micro_entropy = project(family, state, xi)
        except InfoGeoError as exc:
            truncated, diagnostic = True, f"projection at step {k}: {exc}"
            break
        proj_entropy = (
            entropy(projected) if classical else von_neumann_entropy(projected)
        )
        times.append(k * dt)
        xis.append(np.asarray(xi, dtype=float))
        etas.append(means)
        entropies.append(proj_entropy)
        defects.append(proj_entropy - micro_entropy)
        state = projected
    return ProjectionRun(
        family,
        dt,
        np.asarray(times),
        np.asarray(xis),
        np.asarray(etas),
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
