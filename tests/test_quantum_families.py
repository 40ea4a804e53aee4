import numpy as np
import numpy.testing as npt
import pytest

from infogeo.classical import ExponentialFamily, fit_mixture_coords, mixture_coords
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
from infogeo.spectral import hermitian_part

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
            # an underflowed weight leaves nan in the BKM covariance
            ([1.0, 0.0, -1.0], 1.5, "non-finite Newton step"),
        ],
    )
    def test_infeasible_target_names_feature_and_target(self, spectrum, target, reason):
        d = len(spectrum)
        fam = QuantumExponentialFamily(np.zeros((d, d)), [np.diag(spectrum)])
        with pytest.raises(FeasibilityError) as info:
            quantum_maxent_fit(fam, [target])
        assert f"feature 0 with target {target!r} ({reason}" in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(ValueError, match="target means must be finite"):
            quantum_maxent_fit(fam, [bad])

    def test_wrong_target_shape_rejected(self):
        fam = QuantumExponentialFamily(np.zeros((2, 2)), [PAULI_Z])
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(1,\)"):
            quantum_maxent_fit(fam, [0.1, 0.2])
