import sys

import numpy as np
import numpy.testing as npt
import pytest

from infogeo.classical import ExponentialFamily, fit_mixture_coords, mixture_coords
from infogeo.classical.families import _moments
from infogeo.errors import BoundaryError, ConvergenceError, FeasibilityError
from infogeo.quantum import (
    QuantumExponentialFamily,
    mean_parametrized_path,
    quantum_entropy_relative_to_base,
    quantum_legendre_residual,
    quantum_massieu,
    quantum_maxent_fit,
    quantum_mixture_coords,
    state_from_score,
    von_neumann_entropy,
)
import infogeo.quantum.families as qfamilies
from infogeo.quantum.states import gibbs_density, gibbs_moments, gibbs_spectrum
from infogeo.spectral import (
    SpectralDecomposition,
    dagger,
    eigh,
    hermitian_part,
    log_sum_exp,
    logarithmic_mean_kernel,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(a)


class TestStateFromScore:
    def test_trivial_family_is_maximally_mixed(self):
        fam = QuantumExponentialFamily(np.zeros((3, 3)), [np.diag([1.0, 0.0, -1.0])])
        rho = state_from_score(fam, [0.0])
        npt.assert_allclose(rho.matrix, np.eye(3) / 3.0, atol=1e-14)
        npt.assert_allclose(quantum_massieu(fam, [0.0]), np.log(3.0), atol=1e-14)

    def test_qubit_closed_form(self):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        for t in (-1.3, 0.0, 0.7):
            rho = state_from_score(fam, [t])
            z = np.exp(-t) + np.exp(t)
            npt.assert_allclose(
                rho.matrix, np.diag([np.exp(-t), np.exp(t)]) / z, atol=1e-14
            )

    def test_commuting_matches_classical(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=5)
        f = rng.normal(size=(2, 5))
        qfam = QuantumExponentialFamily(
            np.diag(h), [np.diag(f[0]), np.diag(f[1])]
        )
        cfam = ExponentialFamily(f, base_log_density=-h)
        xi = rng.normal(size=2)
        rho = state_from_score(qfam, xi)
        pt = cfam.point(xi)
        npt.assert_allclose(np.diag(rho.matrix).real, pt.probs(), atol=1e-12)
        npt.assert_allclose(quantum_massieu(qfam, xi), pt.psi, atol=1e-12)

    def test_no_overflow(self):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        val = quantum_massieu(fam, [500.0])
        npt.assert_allclose(val, 500.0, atol=1e-9)  # log(e^500 + e^-500)

    def test_wide_spectrum_names_spread(self):
        fam = QuantumExponentialFamily(np.diag([0.0, 40.0]), [PAULI_Z])
        with pytest.raises(BoundaryError, match=r"spread over 40, .* floor 1e-14") as info:
            state_from_score(fam, [0.0])
        assert "allow_boundary" not in str(info.value)
        assert quantum_massieu(fam, [0.0]) < 1e-17

    def test_rejects_dependent_features(self):
        with pytest.raises(ValueError, match="dependent"):
            QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z, 2.0 * PAULI_Z])

    def test_identity_feature_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            QuantumExponentialFamily(np.zeros((2, 2)), [np.eye(2)])


class TestMassieuDerivatives:
    def test_gradient_is_minus_means(self):
        rng = np.random.default_rng(1)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 3), [random_hermitian(rng, 3)]
        )
        xi = np.array([0.4])
        eta = quantum_mixture_coords(fam, xi)
        h = 1e-5
        fd = (quantum_massieu(fam, xi + h) - quantum_massieu(fam, xi - h)) / (2 * h)
        npt.assert_allclose(fd, -eta[0], rtol=1e-6, atol=1e-8)


def loop_means_and_bkm_cov(fam, xi):
    """Feature by feature and pair by pair: the reference for the stacked oracle."""
    dec, log_p, log_z = gibbs_spectrum(fam.hamiltonian(xi))
    p, u = np.exp(log_p), dec.eigenvectors
    ft = [u.conj().T @ f @ u for f in fam.features]
    eta = np.array([float((p * np.diagonal(f).real).sum()) for f in ft])
    k = logarithmic_mean_kernel.matrix(p)
    centered = [f - e * np.eye(fam.dim) for f, e in zip(ft, eta)]
    cov = np.array(
        [[np.sum(k * a * b.conj()).real for b in centered] for a in centered]
    )
    return log_z, eta, cov


class TestStackedOracle:
    @pytest.mark.parametrize("dim, n", [(2, 1), (3, 2), (5, 3), (8, 2)])
    def test_matches_the_loop(self, dim, n):
        rng = np.random.default_rng(dim * 10 + n)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, dim), [random_hermitian(rng, dim) for _ in range(n)]
        )
        for _ in range(5):
            xi = rng.normal(size=n)
            log_z, eta, cov, _ = fam._oracle(xi)
            ref_log_z, ref_eta, ref_cov = loop_means_and_bkm_cov(fam, xi)
            # the same sums in the same order: equal to the bit
            assert log_z == ref_log_z
            assert np.array_equal(eta, ref_eta)
            # one matrix product instead of n^2 sums: rounding of the sum
            atol = 1e-13 * np.abs(ref_cov).max()
            npt.assert_allclose(cov, ref_cov, rtol=0, atol=atol)
            npt.assert_array_equal(cov, cov.T)


def exp_max_gibbs_moments(dec, log_p, ops):
    """gibbs_moments with the logarithmic mean's factor taken as exp(max log p)
    and the quotient under ``where``: the formula the kernel must equal."""
    p = np.exp(log_p)
    u = dec.eigenvectors
    centered = (dagger(u) @ ops @ u).reshape(len(ops), -1)
    diagonals = centered[:, :: dec.dim + 1]
    means = (p * diagonals.real).sum(axis=-1)
    diagonals -= means[:, None]
    b = np.maximum(log_p[:, None], log_p[None, :])
    x = np.minimum(log_p[:, None], log_p[None, :]) - b
    with np.errstate(invalid="ignore"):
        k = np.exp(b) * np.where(x == 0.0, 1.0, np.expm1(x) / x)
    cov = ((k.reshape(-1) * centered) @ centered.conj().T).real
    return p, means, 0.5 * (cov + cov.T)


@st.composite
def gibbs_inputs(draw):
    """A spectrum (random, tied, fully degenerate, or spread so wide that
    weights underflow), a seeded eigenbasis and 1-3 Hermitian operators."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "tied", "degenerate", "underflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        w = rng.normal(scale=3.0, size=d)
    elif kind == "tied":
        w = rng.choice(rng.normal(size=max(1, d // 2)), size=d)
    elif kind == "degenerate":
        w = np.full(d, rng.normal())
    else:
        w = rng.uniform(0.0, 2000.0, size=d)
    w = np.sort(w)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    ops = np.stack([random_hermitian(rng, d) for _ in range(rng.integers(1, 4))])
    return SpectralDecomposition(w, u), -w - log_sum_exp(-w), ops


@settings(max_examples=300, deadline=None)
@given(gibbs_inputs())
def test_gibbs_moments_equal_the_exp_max_formula(inputs):
    # exp(max(a, b)) is max(e^a, e^b) of the weights already formed, bit for bit
    for got, want in zip(gibbs_moments(*inputs), exp_max_gibbs_moments(*inputs)):
        assert np.array_equal(got, want)


class TestSharedMomentKernel:
    def test_oracle_variance_where_a_weight_underflows(self):
        # p = (1, e^-800) and e^-800 is below double precision, yet the
        # logarithmic mean L(1, e^-800) = 1/800 comes from log p
        fam = QuantumExponentialFamily(np.diag([0.0, 800.0]), [PAULI_X])
        log_z, eta, cov, _ = fam._oracle([0.0])
        assert log_z == 0.0 and eta[0] == 0.0
        npt.assert_allclose(cov, [[2.0 / 800.0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim, n", [(2, 1), (4, 2), (6, 3)])
    def test_commuting_family_is_the_classical_covariance(self, dim, n):
        # diagonal H0 and features: the BKM covariance is the classical one
        # of the eigenbasis diagonals under the same weights
        rng = np.random.default_rng(dim + n)
        h0 = np.diag(rng.normal(size=dim))
        ops = np.stack([np.diag(rng.normal(size=dim)) for _ in range(n)]) + 0j
        dec, log_p, _ = gibbs_spectrum(h0 + np.tensordot(rng.normal(size=n), ops, 1))
        p, means, cov = gibbs_moments(dec, log_p, ops)
        u = dec.eigenvectors
        x = np.array([np.diagonal(u.conj().T @ f @ u).real for f in ops])
        ref_means, _, ref_cov = _moments(x, p)
        npt.assert_allclose(means, ref_means, rtol=0, atol=1e-15)
        npt.assert_allclose(cov, ref_cov, rtol=1e-13, atol=1e-16)


class TestQuantumMaxent:
    def test_qubit_symmetric_target(self):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        fit = quantum_maxent_fit(fam, [0.0])
        npt.assert_allclose(fit.xi, 0.0, atol=1e-12)
        npt.assert_allclose(fit.state.matrix, np.eye(2) / 2, atol=1e-12)
        npt.assert_allclose(von_neumann_entropy(fit.state), np.log(2), atol=1e-12)

    def test_means_matched(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            fam = QuantumExponentialFamily(
                random_hermitian(rng, 4),
                [random_hermitian(rng, 4), random_hermitian(rng, 4)],
            )
            target = quantum_mixture_coords(fam, rng.normal(size=2) * 0.5)
            fit = quantum_maxent_fit(fam, target)
            npt.assert_allclose(
                quantum_mixture_coords(fam, fit.xi), target, atol=1e-10
            )

    def test_commuting_matches_classical_fit(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 4))
        qfam = QuantumExponentialFamily(
            np.zeros((4, 4)), [np.diag(f[0]), np.diag(f[1])]
        )
        cfam = ExponentialFamily(f)
        target = mixture_coords(cfam.point([0.3, -0.4]))
        qfit = quantum_maxent_fit(qfam, target)
        cfit = fit_mixture_coords(cfam, target)
        npt.assert_allclose(qfit.xi, cfit.xi, atol=1e-9)

    def test_infeasible_target(self):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(FeasibilityError):
            quantum_maxent_fit(fam, [1.5])  # spectrum of sigma_z is [-1, 1]

    def test_state_is_composed_once_when_read(self, monkeypatch):
        rng = np.random.default_rng(6)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 4), [random_hermitian(rng, 4) for _ in range(2)]
        )
        target = quantum_mixture_coords(fam, [0.3, -0.2])
        calls = []

        def counting(dec, p):
            calls.append(1)
            return gibbs_density(dec, p)

        monkeypatch.setattr(qfamilies, "gibbs_density", counting)
        fit = quantum_maxent_fit(fam, target)
        assert calls == []
        state = fit.state
        assert fit.state is state and calls == [1]
        ref = gibbs_density(*fit.spectrum)
        assert state.matrix.tobytes() == ref.matrix.tobytes()
        assert state.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert (state.spectral.eigenvectors.tobytes()
                == ref.spectral.eigenvectors.tobytes())

    def test_non_faithful_gibbs_point_raises_from_the_fit(self):
        # at xi = -400 the target 1.0 is met to rounding, but the weight
        # e^-800 of the fitted state is below the floor
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(BoundaryError) as info:
            quantum_maxent_fit(fam, [1.0], xi0=[-400.0])
        assert str(info.value) == (
            "Gibbs state exp(-H)/Z is not faithful: the eigenvalues of H spread "
            "over 800, so its smallest weight 0.000e+00 is at or below the floor "
            "1e-14 (spreads above about -log(1e-14) = 32.2 reach it)"
        )


class TestLegendre:
    def test_residual_at_fit_h0_zero(self):
        rng = np.random.default_rng(4)
        fam = QuantumExponentialFamily(
            np.zeros((3, 3)), [random_hermitian(rng, 3)]
        )
        fit = quantum_maxent_fit(fam, quantum_mixture_coords(fam, [0.6]))
        assert quantum_legendre_residual(fam, fit.xi) <= 1e-10
        # with H0 = 0 the relative entropy is the plain entropy
        s = von_neumann_entropy(fit.state)
        npt.assert_allclose(
            s, fit.log_z + float(fit.xi @ quantum_mixture_coords(fam, fit.xi)),
            atol=1e-10,
        )

    def test_residual_with_nonzero_h0(self):
        rng = np.random.default_rng(5)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 3), [random_hermitian(rng, 3)]
        )
        assert quantum_legendre_residual(fam, [0.7]) <= 1e-10

    def test_entropy_gradient_is_xi(self):
        # dS_rel/deta = xi by finite differences through the fit
        rng = np.random.default_rng(6)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 3), [random_hermitian(rng, 3)]
        )
        xi = np.array([0.5])
        eta = quantum_mixture_coords(fam, xi)
        h = 1e-5
        hi = quantum_maxent_fit(fam, eta + h, xi0=xi)
        lo = quantum_maxent_fit(fam, eta - h, xi0=xi)
        ds = (
            quantum_entropy_relative_to_base(fam, hi.xi)
            - quantum_entropy_relative_to_base(fam, lo.xi)
        ) / (2 * h)
        npt.assert_allclose(ds, xi[0], rtol=1e-5, atol=1e-6)


class TestMeanParametrizedPath:
    def test_path_is_unbiased_in_the_feature(self):
        rng = np.random.default_rng(7)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 2), [random_hermitian(rng, 2)]
        )
        path = mean_parametrized_path(fam)
        for eta in (-0.3, 0.0, 0.4):
            rho = path(eta)
            npt.assert_allclose(rho.expectation(fam.features[0]), eta, atol=1e-10)

    def test_each_evaluation_starts_from_the_last(self, monkeypatch):
        rng = np.random.default_rng(9)  # the feature's spectrum spans (-2.4, 1.2)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 3), [random_hermitian(rng, 3)]
        )
        oracle = QuantumExponentialFamily._oracle
        calls = []

        def counting(fam, xi):
            calls.append(1)
            return oracle(fam, xi)

        monkeypatch.setattr(QuantumExponentialFamily, "_oracle", counting)
        path = mean_parametrized_path(fam)
        xi = np.zeros(1)
        for k, eta in enumerate((-0.8, -0.4, 0.3, 0.3)):
            calls.clear()
            rho = path(eta)
            on_path = len(calls)
            calls.clear()
            # a fresh fit from the same start evaluates that start again
            fresh = quantum_maxent_fit(fam, [eta], xi0=xi, tol=1e-12)
            assert len(calls) == on_path + (k > 0)
            assert rho.matrix.tobytes() == fresh.state.matrix.tobytes()
            xi = fresh.xi


class TestDualNewtonStops:
    def test_singular_hessian_far_out_is_infeasible(self):
        # At xi = (-69, 69) the middle weight is 1e-30 of the others, below
        # rounding, so both centered features have the same BKM covariance
        # entries and the Hessian is exactly singular; the target (0.4, 0.4)
        # asks for that weight to be zero.
        fam = QuantumExponentialFamily(
            np.zeros((3, 3)), [np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])]
        )
        with pytest.raises(FeasibilityError, match="singular Hessian") as info:
            quantum_maxent_fit(fam, [0.4, 0.4], xi0=[-69.0, 69.0])
        assert isinstance(info.value, ConvergenceError)
        assert "target 0.4" in str(info.value)
        npt.assert_allclose(info.value.residual, 0.1, atol=1e-12)

    @pytest.mark.parametrize(
        "spectrum, target, reason",
        [
            ([1.0, -1.0], 1.5, "|xi| passed 1000"),
            # the full Newton step reaches |xi| ~ 1e260, where the
            # Hamiltonian's norm overflows; the line search skips such points
            ([1.0, -1.0], 3.0, "line search stalled"),
            # two underflowed weights give a zero block in the BKM
            # covariance kernel, and the covariance is exactly singular
            ([1.0, 0.0, -1.0], 1.5, "singular Hessian"),
        ],
    )
    def test_infeasible_target_names_feature_and_target(self, spectrum, target, reason):
        d = len(spectrum)
        fam = QuantumExponentialFamily(np.zeros((d, d)), [np.diag(spectrum)])
        with pytest.raises(FeasibilityError) as info:
            quantum_maxent_fit(fam, [target])
        assert f"feature 0 with target {target!r} ({reason}" in str(info.value)

    def test_non_finite_hessian_stops(self, monkeypatch):
        # the guard for a Hessian that a future oracle leaves non-finite
        oracle = QuantumExponentialFamily._oracle

        def nan_cov(fam, xi):
            log_z, eta, cov, state = oracle(fam, xi)
            return log_z, eta, np.full_like(cov, np.nan), state

        monkeypatch.setattr(QuantumExponentialFamily, "_oracle", nan_cov)
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(ConvergenceError, match="non-finite Newton step"):
            quantum_maxent_fit(fam, [0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(ValueError, match="target means must be finite"):
            quantum_maxent_fit(fam, [bad])

    def test_wrong_target_shape_rejected(self):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(1,\)"):
            quantum_maxent_fit(fam, [0.1, 0.2])


class TestLegendreResidualWork:
    def test_one_decomposition_per_call(self, monkeypatch):
        rng = np.random.default_rng(44)
        for d in (2, 3, 5):
            fam = QuantumExponentialFamily(
                random_hermitian(rng, d), [random_hermitian(rng, d) for _ in range(2)]
            )
            xi = rng.normal(size=2)
            # the composition the residual used to make: two decompositions
            log_z, eta, _, _ = fam._oracle(xi)
            old = abs(quantum_entropy_relative_to_base(fam, xi) - (log_z + float(xi @ eta)))
            calls = []

            def counting(a):
                calls.append(1)
                return eigh(a)

            with monkeypatch.context() as m:
                for name, mod in list(sys.modules.items()):
                    if name.startswith("infogeo") and vars(mod).get("eigh") is eigh:
                        m.setattr(mod, "eigh", counting)
                got = quantum_legendre_residual(fam, xi)
            assert len(calls) == 1
            assert got.hex() == old.hex()


class TestSharedWithClassical:
    def test_features_are_one_read_only_array(self):
        rng = np.random.default_rng(31)
        raw = [random_hermitian(rng, 3) + 0.1j * rng.normal(size=(3, 3)) for _ in range(2)]
        fam = QuantumExponentialFamily(np.zeros((3, 3)), raw)
        assert isinstance(fam.features, np.ndarray)
        assert fam.features.shape == (2, 3, 3)
        assert not fam.features.flags.writeable
        for j in range(2):
            npt.assert_array_equal(fam.features[j], hermitian_part(raw[j]))

    @pytest.mark.parametrize(
        "xi, message",
        [([0.1, 0.2], r"xi has shape \(2,\), expected \(1,\)"),
         ([np.nan], "xi must be finite")],
    )
    def test_xi_errors_match_the_classical_family(self, xi, message):
        qfam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        cfam = ExponentialFamily([[0.0, 1.0]])
        calls = (
            lambda: qfam.hamiltonian(xi),
            lambda: cfam.point(xi),
            lambda: quantum_maxent_fit(qfam, [0.5], xi0=xi),
            lambda: fit_mixture_coords(cfam, [0.5], xi0=xi),
        )
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize(
        "tol, message",
        [(-1.0, "tol must be positive"), (0.0, "tol must be positive"),
         (np.nan, "tol must be positive"), (np.inf, "tol must be finite")],
    )
    def test_tol_errors_match_the_classical_family(self, tol, message):
        # refused before the first evaluation: a tolerance no residual can
        # pass would spend the iteration budget, and inf accepts the start
        qfam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        cfam = ExponentialFamily([[0.0, 1.0]])
        for call in (
            lambda: quantum_maxent_fit(qfam, [0.5], tol=tol),
            lambda: fit_mixture_coords(cfam, [0.5], tol=tol),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
