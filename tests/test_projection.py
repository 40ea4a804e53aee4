import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import infogeo.classical.distributions as distributions
import infogeo.classical.families as families
import infogeo.projection as projection
import infogeo.quantum.states as states
from infogeo.classical import (
    ExponentialFamily,
    FiniteDistribution,
    entropy,
    full_simplex_family,
    uniform,
)
from infogeo.errors import BoundaryError, FeasibilityError, InfoGeoError
from infogeo.maps import QuantumCPUnitalMap, push_state
from infogeo.projection import (
    HamiltonianStep,
    MarkovGenerator,
    micro_step,
    roll,
)
from infogeo.quantum import DensityMatrix, QuantumExponentialFamily
from infogeo.quantum.states import project_traceless
from infogeo.serialize import run_to_csv
from infogeo.spectral import eigh, hermitian_part

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

    @pytest.mark.parametrize("rate, drift", [(1e20, "1.000e+00"), (1e8, "3.49")])
    def test_stiff_propagator_raises(self, rate, drift):
        # scaling and squaring loses exp(dt Q) of a stiff generator; a
        # propagator whose columns do not sum to 1 is refused, not used
        gen = MarkovGenerator([[-rate, rate], [rate, -rate]])
        with pytest.raises(ValueError, match="not stochastic") as err:
            gen.propagator(0.1)
        assert f"its columns drift {drift}" in str(err.value)
        assert str(err.value).endswith(f"the largest rate is {0.1 * rate:.3e})")


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
        assert np.abs(gen.rates.sum(axis=1)).max() < 1e-12
        out = micro_step(uniform(4), gen, 0.9)
        npt.assert_allclose(out.probs, 0.25, atol=1e-12)

    def test_unitary_step_preserves_spectrum(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        step = HamiltonianStep(PAULI["y"])
        out = micro_step(rho, step, 0.5)
        npt.assert_allclose(np.sort(out.eigenvalues), [0.3, 0.7], atol=1e-12)

    def test_unitary_step_checks_the_propagator(self):
        # micro_step trusts no propagator: U @ V is checked before it is kept
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        step = HamiltonianStep(PAULI["y"])
        with pytest.raises(ValueError, match="not unitary"):
            micro_step(rho, step, 0.5, propagator=1.5 * step.unitary(0.5))

    def test_unitary_is_validated(self, monkeypatch):
        # the step's decomposition is checked like every other one
        solve = np.linalg.eigh

        def wrong(a):
            w, u = solve(a)
            return 2.0 * w, u

        monkeypatch.setattr(np.linalg, "eigh", wrong)
        with pytest.raises(ValueError, match="reconstruction residual"):
            HamiltonianStep(np.diag([1.0, -1.0])).unitary(0.1)

    def test_channel_step(self):
        q = 0.2
        chan = QuantumCPUnitalMap(
            [np.sqrt(1 - q) * np.eye(2)]
            + [np.sqrt(q / 3) * PAULI[k] for k in ("x", "y", "z")]
        )
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        out = micro_step(rho, chan, 1.0)
        npt.assert_allclose(np.trace(out.matrix).real, 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "prop, kind, message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], ValueError, "probabilities must be finite"),
            ([[np.inf, 0.0], [0.0, 1.0]], InfoGeoError, "probability drifted to inf"),
            (1.001 * np.eye(2), InfoGeoError, "probability drifted to 1.001"),
            ([[1.0, 1.0], [0.0, 0.0]], BoundaryError,
             "microdynamics left the faithful interior"),
            ([[1.1, 1.1], [-0.1, -0.1]], BoundaryError,
             "microdynamics left the faithful interior"),
        ],
        ids=["nan", "inf", "mass", "sub-floor", "negative"],
    )
    def test_bad_propagator_output_is_refused(self, prop, kind, message):
        # the step checks its own output: drift, then the floor, then a nan
        with pytest.raises(kind) as info:
            micro_step(FiniteDistribution([0.5, 0.5]), two_state_generator(1.0), 0.1,
                       propagator=np.array(prop))
        assert type(info.value) is kind
        assert str(info.value) == message


class TestRoll:
    def test_roll_checks_each_state_once(self, monkeypatch):
        calls = []
        check = distributions.check_probabilities

        def counting(p, allow_boundary=False):
            calls.append(1)
            return check(p, allow_boundary)

        for module in (distributions, families):
            monkeypatch.setattr(module, "check_probabilities", counting)
        initial = FiniteDistribution([0.5, 0.2, 0.2, 0.1])
        calls.clear()
        steps = 12
        run = roll(initial, two_block_generator(), BLOCK_FAMILY, 0.25, steps)
        assert not run.truncated and run.steps_completed == steps
        # each projected state is checked once; a micro step checks its own
        # output without the constructor's second pass
        assert len(calls) == steps + 1

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


def _mismatched_runs():
    """(initial state, dynamics, family, message) whose kinds or sizes differ."""
    fam3 = ExponentialFamily([[0.0, 1.0, 2.0]])
    qfam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]])
    p2, p3 = FiniteDistribution([0.4, 0.6]), FiniteDistribution([0.2, 0.3, 0.5])
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    gen2 = two_state_generator(1.0)
    gen3 = MarkovGenerator(np.ones((3, 3)) - 3 * np.eye(3))
    step2, step3 = HamiltonianStep(PAULI["x"]), HamiltonianStep(np.eye(3))
    return [
        (p3, gen2, fam3, "generator has size 2 but the family has size 3"),
        (p2, gen3, fam3, "initial state has size 2 but the family has size 3"),
        (rho, gen3, fam3, "initial state must be a FiniteDistribution"),
        (p3, step2, fam3, "classical families require a Markov generator"),
        (rho, step3, qfam, "Hamiltonian has size 3 but the family has size 2"),
        (rho, QuantumCPUnitalMap([np.eye(3)]), qfam,
         "channel input has size 3 but the family has size 2"),
        (DensityMatrix(np.eye(3) / 3), step2, qfam,
         "initial state has size 3 but the family has size 2"),
        (rho, gen2, qfam, "quantum families require a Hamiltonian step or a channel"),
        (p2, step2, qfam, "initial state must be a DensityMatrix"),
        (rho, step2, "family", "unsupported family str"),
    ]


@pytest.mark.parametrize("state, dynamics, family, message", _mismatched_runs())
def test_roll_names_mismatched_input(state, dynamics, family, message):
    with pytest.raises(ValueError) as info:
        roll(state, dynamics, family, dt=0.1, steps=3)
    assert str(info.value) == message


def _fit_failing_at(name, step):
    """The fit ``projection.<name>``, except that the projection at ``step``
    raises."""
    fit = getattr(projection, name)
    calls = []

    def fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == step + 1:
            raise FeasibilityError("target left the polytope")
        return fit(*args, **kwargs)

    return fails


def test_failed_projection_truncates_with_diagnostic(monkeypatch):
    qubit = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]])
    cases = [
        ("fit_mixture_coords", FiniteDistribution([0.8, 0.2]),
         two_state_generator(1.0), ExponentialFamily(np.array([[0.0, 1.0]]))),
        ("quantum_maxent_fit", DensityMatrix(np.diag([0.8, 0.2])),
         HamiltonianStep(PAULI["x"]), qubit),
    ]
    for name, initial, dynamics, fam in cases:
        with monkeypatch.context() as patch:
            patch.setattr(projection, name, _fit_failing_at(name, 2))
            run = roll(initial, dynamics, fam, 0.1, 5)
        assert run.truncated
        assert run.diagnostic == "projection at step 2: target left the polytope"
        assert len(run.times) == len(run.xis) == len(run.defects) == 2
        assert run.steps_completed == 1

        # a failed initial projection leaves no record and no step, and the
        # empty coordinates keep one column per feature
        with monkeypatch.context() as patch:
            patch.setattr(projection, name, _fit_failing_at(name, 0))
            run = roll(initial, dynamics, fam, 0.1, 5)
        assert run.truncated
        assert run.diagnostic == "projection at step 0: target left the polytope"
        assert run.steps_completed == 0
        assert run.times.shape == run.entropies.shape == run.defects.shape == (0,)
        assert run.xis.shape == run.etas.shape == (0, 1)
        assert run_to_csv(run) == "t,xi_1,eta_1,entropy,projection_defect\n"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: roll(FiniteDistribution([0.5, 0.5]), two_state_generator(1.0),
                      ExponentialFamily(np.array([[0.0, 1.0]])), 0.1, -1),
         "steps must be nonnegative"),
        (lambda: micro_step(FiniteDistribution([0.5, 0.5]),
                            two_state_generator(1.0), 0.0),
         "dt must be positive"),
        (lambda: two_state_generator(1.0).propagator(0.0), "dt must be positive"),
        (lambda: MarkovGenerator(np.zeros((2, 3))),
         "generator must be square, got shape (2, 3)"),
        # roll refuses dt before it steps, whatever the dynamics
        (lambda: roll(DensityMatrix(np.diag([0.7, 0.3])), HamiltonianStep(PAULI["x"]),
                      QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]]),
                      -1.0, 0),
         "dt must be positive"),
        (lambda: roll(DensityMatrix(np.diag([0.7, 0.3])),
                      QuantumCPUnitalMap([np.eye(2)]),
                      QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]]),
                      0.0, 0),
         "dt must be positive"),
        (lambda: roll(DensityMatrix(np.diag([0.7, 0.3])), HamiltonianStep(PAULI["x"]),
                      QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]]),
                      0.0, 3),
         "dt must be positive"),
        (lambda: roll(FiniteDistribution([0.5, 0.5]), two_state_generator(1.0),
                      ExponentialFamily(np.array([[0.0, 1.0]])), 0.0, 0),
         "dt must be positive"),
        # nan fails "dt > 0"; an infinite step is refused by name
        (lambda: roll(DensityMatrix(np.diag([0.7, 0.3])), HamiltonianStep(PAULI["x"]),
                      QuantumExponentialFamily(np.zeros((2, 2)), [PAULI["z"]]),
                      np.nan, 0),
         "dt must be positive"),
        (lambda: roll(FiniteDistribution([0.5, 0.5]), two_state_generator(1.0),
                      ExponentialFamily(np.array([[0.0, 1.0]])), np.nan, 3),
         "dt must be positive"),
        (lambda: roll(FiniteDistribution([0.5, 0.5]), two_state_generator(1.0),
                      ExponentialFamily(np.array([[0.0, 1.0]])), np.inf, 3),
         "dt must be finite"),
        (lambda: micro_step(FiniteDistribution([0.5, 0.5]),
                            two_state_generator(1.0), np.nan),
         "dt must be positive"),
        (lambda: micro_step(FiniteDistribution([0.5, 0.5]),
                            two_state_generator(1.0), np.inf),
         "dt must be finite"),
        (lambda: two_state_generator(1.0).propagator(np.nan), "dt must be positive"),
        (lambda: two_state_generator(1.0).propagator(np.inf), "dt must be finite"),
        # a unitary step may go back in time, but not by nan or inf
        (lambda: HamiltonianStep(PAULI["x"]).unitary(np.nan), "dt must be finite"),
        (lambda: HamiltonianStep(PAULI["x"]).unitary(-np.inf), "dt must be finite"),
    ],
)
def test_bad_step_arguments_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestEntropyProduction:
    def test_stationary_uniform_constant(self):
        gen = two_block_generator()
        run = roll(uniform(4), gen, BLOCK_FAMILY, dt=0.2, steps=8)
        series = run.entropies
        npt.assert_allclose(series, np.log(4), atol=1e-10)

    def test_two_state_relaxation_increases_to_log2(self):
        gen = two_state_generator(1.0)
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        run = roll(FiniteDistribution([0.9, 0.1]), gen, fam, dt=0.3, steps=20)
        series = run.entropies
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
        assert np.all(np.diff(run.entropies) >= -1e-10)

    def test_full_family_matches_micro_entropy(self):
        gen = two_block_generator()
        fam = full_simplex_family(4)
        rho0 = FiniteDistribution([0.4, 0.3, 0.2, 0.1])
        run = roll(rho0, gen, fam, dt=0.1, steps=10)
        for t, s in zip(run.times, run.entropies):
            exact = expm(t * gen.rates) @ rho0.probs
            npt.assert_allclose(s, entropy(exact), atol=1e-9)


def _mismatched_steps():
    """(state, dynamics, message) whose kinds or sizes differ."""
    p2, p3 = FiniteDistribution([0.4, 0.6]), FiniteDistribution([0.2, 0.3, 0.5])
    rho2, rho3 = DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.eye(3) / 3)
    gen2, step2 = two_state_generator(1.0), HamiltonianStep(PAULI["x"])
    chan2 = QuantumCPUnitalMap([np.eye(2)])
    return [
        (rho2, gen2, "state must be a FiniteDistribution, got DensityMatrix"),
        (p2, step2, "state must be a DensityMatrix, got FiniteDistribution"),
        (p2, chan2, "state must be a DensityMatrix, got FiniteDistribution"),
        (p3, gen2, "generator has size 2 but the state has size 3"),
        (rho3, step2, "Hamiltonian has size 2 but the state has size 3"),
        (rho3, chan2, "channel input has size 2 but the state has size 3"),
    ]


@pytest.mark.parametrize("state, dynamics, message", _mismatched_steps())
def test_micro_step_names_mismatched_state(state, dynamics, message):
    with pytest.raises(ValueError) as info:
        micro_step(state, dynamics, 0.1)
    assert str(info.value) == message


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


def _series_input(seed, d=4, dynamics="hamiltonian"):
    """A quantum-series-style roll: zero base Hamiltonian, two random
    features, a Gibbs initial state and a random Hamiltonian step, or a
    random channel sqrt(1 - q) I plus sqrt(q) times the blocks of a random
    3d x d isometry.

    The features are traceless and orthonormal in Tr[A B].  Two random
    features at d = 2 can be nearly parallel modulo the identity; the fits
    then reach |xi| of 70 and amplify rounding in the means by 1e5."""
    rng = np.random.default_rng(seed)

    def rand_h(scale=1.0):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return scale * hermitian_part(a)

    a, b = project_traceless(np.stack([rand_h(), rand_h()]))
    a /= np.linalg.norm(a)
    b -= np.vdot(a, b).real * a
    fam = QuantumExponentialFamily(np.zeros((d, d)), [a, b / np.linalg.norm(b)])
    rho0 = expm(-rand_h(2.0))
    step = HamiltonianStep(rand_h(2.0))
    if dynamics == "channel":
        q = rng.uniform(0.05, 0.5)
        g = rng.normal(size=(3 * d, d)) + 1j * rng.normal(size=(3 * d, d))
        iso, _ = np.linalg.qr(g)
        step = QuantumCPUnitalMap(
            [np.sqrt(1 - q) * np.eye(d)]
            + [np.sqrt(q) * iso[k * d:(k + 1) * d] for k in range(3)]
        )
    return fam, DensityMatrix(rho0 / np.trace(rho0).real), step


def test_quantum_roll_decomposes_only_in_the_oracle(monkeypatch):
    oracle = QuantumExponentialFamily._oracle
    calls = {"oracle": 0, "eigh": 0, "eigh_outside": 0}
    inside = []

    def counting_oracle(fam, xi):
        calls["oracle"] += 1
        inside.append(1)
        try:
            return oracle(fam, xi)
        finally:
            inside.pop()

    def counting_eigh(a):
        calls["eigh"] += 1
        calls["eigh_outside"] += not inside
        return eigh(a)

    monkeypatch.setattr(QuantumExponentialFamily, "_oracle", counting_oracle)
    for name, mod in list(sys.modules.items()):
        if name.startswith("infogeo") and vars(mod).get("eigh") is eigh:
            monkeypatch.setattr(mod, "eigh", counting_eigh)
    from infogeo.quantum import quantum_maxent_fit

    steps = 12
    # outside the oracle, a Hamiltonian run decomposes once, for its unitary,
    # and a channel run once per step, for the pushed state
    for dynamics, outside in (("hamiltonian", 1), ("channel", steps)):
        fam, rho0, step = _series_input(21, dynamics=dynamics)
        for key in calls:
            calls[key] = 0
        run = roll(rho0, step, fam, dt=0.1, steps=steps)
        assert run.steps_completed == steps
        assert calls["eigh_outside"] == outside
        assert calls["eigh"] == calls["oracle"] + outside
        rolled = calls["oracle"]

        # the same solves one by one, each evaluating its start again: N more
        calls["oracle"] = 0
        starts = [np.zeros(2), *run.xis[:-1]]
        for xi0, means, xi in zip(starts, run.etas, run.xis):
            assert np.array_equal(quantum_maxent_fit(fam, means, xi0=xi0).xi, xi)
        assert calls["oracle"] == rolled + steps


@pytest.mark.parametrize("dynamics", ["hamiltonian", "channel"])
def test_quantum_roll_composes_no_state(monkeypatch, dynamics):
    fam, rho0, step = _series_input(24, dynamics=dynamics)
    composed = []
    compose = states._compose

    def counting(*args):
        composed.append(1)
        return compose(*args)

    monkeypatch.setattr(states, "_compose", counting)
    run = roll(rho0, step, fam, dt=0.1, steps=10)
    assert run.steps_completed == 10
    assert composed == []


def test_roll_checks_the_unitary_once(monkeypatch):
    calls = []
    unitary = HamiltonianStep.unitary

    def checked(self, dt):
        calls.append(1)
        return unitary(self, dt)

    fam, rho0, step = _series_input(25)
    monkeypatch.setattr(HamiltonianStep, "unitary", checked)
    assert roll(rho0, step, fam, dt=0.1, steps=10).steps_completed == 10
    assert calls == [1]
    monkeypatch.setattr(HamiltonianStep, "unitary",
                        lambda self, dt: (1.0 + 1e-9) * unitary(self, dt))
    with pytest.raises(ValueError, match=r"^propagator is not unitary: residual"):
        roll(rho0, step, fam, dt=0.1, steps=10)


@pytest.mark.parametrize("dynamics", ["hamiltonian", "channel"])
@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_quantum_roll_matches_state_from_score_reference(dynamics, d, seed):
    from infogeo.quantum import (
        quantum_maxent_fit,
        state_from_score,
        von_neumann_entropy,
    )

    fam, rho0, step = _series_input(seed, d, dynamics)
    dt, steps = 0.1, 8
    run = roll(rho0, step, fam, dt=dt, steps=steps)
    assert run.steps_completed == steps

    # the Schroedinger picture, every projected state composed and its
    # stepped state decomposed afresh
    u = step.unitary(dt) if dynamics == "hamiltonian" else None
    xi, state, ref = np.zeros(2), rho0, []
    for k in range(steps + 1):
        if k > 0:
            state = micro_step(state, step, dt, propagator=u)
        means = np.array([np.trace(state.matrix @ f).real for f in fam.features])
        xi = quantum_maxent_fit(fam, means, xi0=xi).xi
        projected = state_from_score(fam, xi)
        s = von_neumann_entropy(projected)
        ref.append((xi, means, s, s - von_neumann_entropy(state)))
        state = projected
    for got, want in zip((run.xis, run.etas, run.entropies, run.defects), zip(*ref)):
        npt.assert_allclose(got, np.asarray(want), rtol=0, atol=1e-12)
