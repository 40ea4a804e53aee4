import sys

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from infogeo.classical import (
    ExponentialFamily,
    FiniteDistribution,
    entropy,
    full_simplex_family,
    uniform,
)
from infogeo.errors import BoundaryError
from infogeo.maps import QuantumCPUnitalMap, push_state
from infogeo.projection import (
    HamiltonianStep,
    MarkovGenerator,
    entropy_production,
    micro_step,
    roll,
)
from infogeo.quantum import DensityMatrix, QuantumExponentialFamily
from infogeo.spectral import eigh

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def two_state_generator(rate):
    return MarkovGenerator([[-rate, rate], [rate, -rate]])


def two_block_generator(a=0.5, e1=0.3, e2=0.06):
    """Strong mixing inside blocks {0,1} and {2,3}, weak state-dependent
    coupling between them.  The coupling rate differs across the block (e1
    on 1 <-> 2, e2 on 0 <-> 3), so the block masses do not close exactly;
    pairwise symmetry keeps the generator doubly stochastic."""
    r = np.zeros((4, 4))
    r[0, 1] = r[1, 0] = a
    r[2, 3] = r[3, 2] = a
    r[2, 1] = r[1, 2] = e1
    r[3, 0] = r[0, 3] = e2
    q = r.copy()
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=0))
    return MarkovGenerator(q)


BLOCK_FAMILY = ExponentialFamily(np.array([[0.0, 0.0, 1.0, 1.0]]))


class TestMarkovGenerator:
    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError, match="columns"):
            MarkovGenerator([[-1.0, 0.5], [1.0, -1.0]])

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="negative"):
            MarkovGenerator([[1.0, -1.0], [-1.0, 1.0]])

    def test_propagator_is_stochastic(self):
        gen = two_block_generator()
        prop = gen.propagator(0.3)
        npt.assert_allclose(prop.sum(axis=0), 1.0, atol=1e-12)
        assert prop.min() >= 0


class TestMicroStep:
    def test_zero_generator_fixes_state(self):
        gen = MarkovGenerator(np.zeros((3, 3)))
        rho = FiniteDistribution([0.5, 0.3, 0.2])
        out = micro_step(rho, gen, 0.7)
        npt.assert_allclose(out.probs, rho.probs, atol=1e-15)

    def test_two_state_closed_form(self):
        # rho(t) = u + (rho0 - u) exp(-2 r t)
        r, dt = 1.3, 0.4
        gen = two_state_generator(r)
        rho0 = np.array([0.9, 0.1])
        out = micro_step(FiniteDistribution(rho0), gen, dt)
        expected = 0.5 + (rho0 - 0.5) * np.exp(-2 * r * dt)
        npt.assert_allclose(out.probs, expected, atol=1e-10)

    def test_doubly_stochastic_fixes_uniform(self):
        gen = two_block_generator()
        assert gen.is_doubly_stochastic()
        out = micro_step(uniform(4), gen, 0.9)
        npt.assert_allclose(out.probs, 0.25, atol=1e-12)

    def test_unitary_step_preserves_spectrum(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        step = HamiltonianStep(PAULI["y"])
        out = micro_step(rho, step, 0.5)
        npt.assert_allclose(np.sort(out.eigenvalues), [0.3, 0.7], atol=1e-12)

    def test_channel_step(self):
        q = 0.2
        chan = QuantumCPUnitalMap(
            [np.sqrt(1 - q) * np.eye(2)]
            + [np.sqrt(q / 3) * PAULI[k] for k in ("x", "y", "z")]
        )
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        out = micro_step(rho, chan, 1.0)
        npt.assert_allclose(np.trace(out.matrix).real, 1.0, atol=1e-12)


class TestRoll:
    def test_zero_generator_constant_trajectory(self):
        gen = MarkovGenerator(np.zeros((4, 4)))
        rho0 = FiniteDistribution([0.4, 0.3, 0.2, 0.1])
        run = roll(rho0, gen, BLOCK_FAMILY, dt=0.1, steps=10)
        npt.assert_allclose(run.etas, np.tile(run.etas[0], (11, 1)), atol=1e-12)

    def test_full_family_reproduces_microdynamics(self):
        gen = two_block_generator()
        fam = full_simplex_family(4)
        rho0 = FiniteDistribution([0.4, 0.3, 0.2, 0.1])
        run = roll(rho0, gen, fam, dt=0.05, steps=20)
        t_end = run.times[-1]
        exact = expm(t_end * gen.rates) @ rho0.probs
        npt.assert_allclose(run.etas[-1], (fam.features @ exact), atol=1e-8)
        npt.assert_allclose(run.defects, 0.0, atol=1e-10)

    def test_means_preserved_at_each_projection(self):
        gen = two_block_generator()
        rho0 = FiniteDistribution([0.35, 0.35, 0.15, 0.15])
        run = roll(rho0, gen, BLOCK_FAMILY, dt=0.1, steps=15)
        # replay: the recorded eta must match the family member's means
        for xi, eta in zip(run.xis, run.etas):
            pt = BLOCK_FAMILY.point(xi)
            npt.assert_allclose(
                BLOCK_FAMILY.features @ pt.probs(), eta, atol=1e-10
            )

    def test_projection_never_lowers_entropy(self):
        gen = two_block_generator()
        rho0 = FiniteDistribution([0.5, 0.2, 0.2, 0.1])
        run = roll(rho0, gen, BLOCK_FAMILY, dt=0.2, steps=12)
        assert np.all(run.defects >= -1e-12)

    def test_deterministic(self):
        gen = two_block_generator()
        rho0 = FiniteDistribution([0.35, 0.35, 0.15, 0.15])
        a = roll(rho0, gen, BLOCK_FAMILY, dt=0.1, steps=9)
        b = roll(rho0, gen, BLOCK_FAMILY, dt=0.1, steps=9)
        assert np.array_equal(a.xis, b.xis)
        assert np.array_equal(a.entropies, b.entropies)

    def test_fixed_step_count_error_quarters_with_dt(self):
        # per-step projection defect is second order in dt, so at a fixed
        # number of steps the end-time slow-mean error vs the exact
        # microdynamics drops by about 4x when dt halves
        gen = two_block_generator()
        rho0 = FiniteDistribution([0.35, 0.35, 0.15, 0.15])
        steps = 8

        def end_error(dt):
            run = roll(rho0, gen, fam := BLOCK_FAMILY, dt, steps)
            exact = expm(run.times[-1] * gen.rates) @ rho0.probs
            return abs(run.etas[-1, 0] - float(fam.features[0] @ exact))

        ratio = end_error(0.025) / end_error(0.0125)
        assert 3.0 <= ratio <= 5.0

    def test_boundary_hit_truncates_with_diagnostic(self):
        # absorbing dynamics drive one cell below the faithfulness floor
        q = np.array([[0.0, 8.0], [0.0, -8.0]])
        gen = MarkovGenerator(q)
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        rho0 = FiniteDistribution([0.5, 0.5])
        run = roll(rho0, gen, fam, dt=4.0, steps=3)
        assert run.truncated
        assert "step" in run.diagnostic
        assert run.steps_completed < 3

    def test_quantum_full_family_matches_unitary_micro(self):
        fam = QuantumExponentialFamily(
            np.zeros((2, 2)), [PAULI["x"], PAULI["y"], PAULI["z"]]
        )
        rho0 = DensityMatrix(np.diag([0.8, 0.2]))
        h = PAULI["y"]
        run = roll(rho0, HamiltonianStep(h), fam, dt=0.05, steps=10)
        t_end = run.times[-1]
        u = expm(-1j * t_end * h)
        exact = u @ rho0.matrix @ u.conj().T
        means = [np.trace(exact @ f).real for f in fam.features]
        npt.assert_allclose(run.etas[-1], means, atol=1e-8)
        npt.assert_allclose(run.defects, 0.0, atol=1e-10)

    def test_quantum_partial_family_channel(self):
        q = 0.1
        chan = QuantumCPUnitalMap(
            [np.sqrt(1 - q) * np.eye(2)]
            + [np.sqrt(q / 3) * PAULI[k] for k in ("x", "y", "z")]
        )
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]])
        rho0 = DensityMatrix(0.5 * np.eye(2) + 0.3 * PAULI["x"] + 0.2 * PAULI["z"])
        run = roll(rho0, chan, fam, dt=1.0, steps=6)
        assert not run.truncated
        assert np.all(run.defects >= -1e-12)
        # depolarizing shrinks the mean toward zero geometrically
        means = run.etas[:, 0]
        assert np.all(np.abs(means[1:]) < np.abs(means[:-1]) + 1e-12)


class TestEntropyProduction:
    def test_stationary_uniform_constant(self):
        gen = two_block_generator()
        run = roll(uniform(4), gen, BLOCK_FAMILY, dt=0.2, steps=8)
        series = entropy_production(run)
        npt.assert_allclose(series, np.log(4), atol=1e-10)

    def test_two_state_relaxation_increases_to_log2(self):
        gen = two_state_generator(1.0)
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        run = roll(FiniteDistribution([0.9, 0.1]), gen, fam, dt=0.3, steps=20)
        series = entropy_production(run)
        assert np.all(np.diff(series) > 0)
        npt.assert_allclose(series[-1], np.log(2), atol=1e-4)
        # closed form: p(t) = 1/2 + 0.4 exp(-2t)
        t = run.times
        p1 = 0.5 + 0.4 * np.exp(-2 * t)
        expected = -(p1 * np.log(p1) + (1 - p1) * np.log(1 - p1))
        npt.assert_allclose(series, expected, atol=1e-10)

    def test_doubly_stochastic_is_nondecreasing(self):
        gen = two_block_generator()
        rho0 = FiniteDistribution([0.5, 0.2, 0.2, 0.1])
        run = roll(rho0, gen, BLOCK_FAMILY, dt=0.25, steps=16)
        assert np.all(np.diff(entropy_production(run)) >= -1e-10)

    def test_full_family_matches_micro_entropy(self):
        gen = two_block_generator()
        fam = full_simplex_family(4)
        rho0 = FiniteDistribution([0.4, 0.3, 0.2, 0.1])
        run = roll(rho0, gen, fam, dt=0.1, steps=10)
        for t, s in zip(run.times, entropy_production(run)):
            exact = expm(t * gen.rates) @ rho0.probs
            npt.assert_allclose(s, entropy(exact), atol=1e-9)


def test_channel_step_decomposes_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(1)
        return eigh(a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("infogeo") and vars(mod).get("eigh") is eigh:
            monkeypatch.setattr(mod, "eigh", counting)
    q = 0.2
    chan = QuantumCPUnitalMap(
        [np.sqrt(1 - q) * np.eye(2)]
        + [np.sqrt(q / 3) * PAULI[k] for k in ("x", "y", "z")]
    )
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    calls.clear()
    out = micro_step(rho, chan, 1.0)
    assert len(calls) == 1
    assert out.is_faithful()
    assert np.array_equal(out.matrix, push_state(chan, rho).matrix)


def test_channel_step_to_the_boundary_raises():
    rho = DensityMatrix(np.diag([1.0, 0.0]), allow_boundary=True)
    identity = QuantumCPUnitalMap([np.eye(2)])
    with pytest.raises(BoundaryError, match="channel step left the faithful interior"):
        micro_step(rho, identity, 1.0)
