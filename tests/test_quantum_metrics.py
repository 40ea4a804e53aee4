import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from infogeo.classical import FiniteDistribution, ParametricFamily, fisher_information_matrix
from infogeo.errors import BiasedEstimatorError
import infogeo.quantum.metrics as qmetrics
from infogeo.quantum import (
    BKM,
    GNS_SLD,
    RIGHT,
    DensityMatrix,
    QuantumExponentialFamily,
    bkm_metric,
    gns_metric,
    log_derivatives,
    mean_parametrized_path,
    quantum_cramer_rao,
    quantum_fisher_info,
    quantum_massieu,
    quantum_mixture_coords,
)
from infogeo.spectral import hermitian_part

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(a)


def random_density(rng, dim, min_eig=1e-3):
    w = rng.uniform(min_eig, 1.0, size=dim)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return DensityMatrix((q * w) @ q.conj().T)


def random_score(rng, rho):
    x = random_hermitian(rng, rho.dim)
    return x - np.trace(rho.matrix @ x).real * np.eye(rho.dim)


def bkm_quadrature_metric(rho, x, y, order=64):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    p = rho.eigenvalues
    u = rho.spectral.eigenvectors
    xt = u.conj().T @ x @ u
    yt = u.conj().T @ y @ u
    total = 0.0
    for ai, wi in zip(a, w):
        total += wi * np.trace(
            (p**ai)[:, None] * xt * (p ** (1 - ai))[None, :] @ yt
        ).real
    return float(total)


def mixture_line_path(rho0, d):
    """Path rho0 + t d with exact derivative d."""

    def path(t):
        return DensityMatrix(rho0.matrix + t * d)

    return path


class TestGnsMetric:
    def test_zero(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert gns_metric(rho, np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_pauli_algebra(self):
        rho = DensityMatrix(np.eye(2) / 2)
        npt.assert_allclose(gns_metric(rho, PAULI_X, PAULI_X), 1.0, atol=1e-14)

    def test_real_part_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        x = random_score(rng, rho)
        y = random_score(rng, rho)
        anti = 0.5 * np.trace(rho.matrix @ (x @ y + y @ x)).real
        npt.assert_allclose(gns_metric(rho, x, y), anti, atol=1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = random_density(rng, 3)
            x = random_score(rng, rho)
            assert gns_metric(rho, x, x) > 0


class TestBkmMetric:
    def test_degenerate_spectrum_matches_gns(self):
        rho = DensityMatrix(np.eye(2) / 2)
        npt.assert_allclose(bkm_metric(rho, PAULI_X, PAULI_X), 1.0, atol=1e-14)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = random_density(rng, 3)
            x = random_score(rng, rho)
            y = random_score(rng, rho)
            npt.assert_allclose(
                bkm_metric(rho, x, y), bkm_quadrature_metric(rho, x, y), atol=1e-8
            )

    def test_second_derivative_of_massieu(self):
        # d^2/dt^2 log Z along a feature equals the BKM norm of its
        # centered version
        rng = np.random.default_rng(3)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 3), [random_hermitian(rng, 3)]
        )
        xi = np.array([0.2])
        rho = None
        from infogeo.quantum import state_from_score

        rho = state_from_score(fam, xi)
        f = fam.features[0]
        f0 = f - np.trace(rho.matrix @ f).real * np.eye(3)
        h = 1e-3
        vals = [quantum_massieu(fam, xi + s) for s in (-h, 0.0, h)]
        d2 = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        npt.assert_allclose(d2, bkm_metric(rho, f0, f0), rtol=1e-5, atol=1e-6)

    def test_dominated_by_gns(self):
        # the logarithmic mean never exceeds the arithmetic mean
        rng = np.random.default_rng(4)
        for _ in range(30):
            rho = random_density(rng, 4)
            x = random_score(rng, rho)
            assert bkm_metric(rho, x, x) <= gns_metric(rho, x, x) + 1e-12

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 3)
        x = random_score(rng, rho)
        y = random_score(rng, rho)
        z = random_score(rng, rho)
        npt.assert_allclose(bkm_metric(rho, x, y), bkm_metric(rho, y, x), atol=1e-12)
        npt.assert_allclose(gns_metric(rho, x, y), gns_metric(rho, y, x), atol=1e-12)
        lhs = bkm_metric(rho, 2 * x - z, y)
        rhs = 2 * bkm_metric(rho, x, y) - bkm_metric(rho, z, y)
        npt.assert_allclose(lhs, rhs, atol=1e-11)

    def test_unitary_covariance(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        x = random_score(rng, rho)
        y = random_score(rng, rho)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rho_u = DensityMatrix(q @ rho.matrix @ q.conj().T)
        xu, yu = q @ x @ q.conj().T, q @ y @ q.conj().T
        npt.assert_allclose(
            bkm_metric(rho_u, xu, yu), bkm_metric(rho, x, y), atol=1e-10
        )
        npt.assert_allclose(
            gns_metric(rho_u, xu, yu), gns_metric(rho, x, y), atol=1e-10
        )


class TestLogDerivatives:
    def test_commuting_family_all_coincide(self):
        # rho_t = diag(p_i(t)): every logarithmic derivative is diag(p'/p)
        p0 = np.array([0.5, 0.3, 0.2])
        dp = np.array([0.1, -0.04, -0.06])

        def path(t):
            return DensityMatrix(np.diag(p0 + t * dp))

        ld = log_derivatives(path, 0.0, drho=np.diag(dp))
        expected = np.diag(dp / p0)
        npt.assert_allclose(ld.right, expected, atol=1e-12)
        assert ld.right_is_hermitian
        npt.assert_allclose(ld.symmetric, expected, atol=1e-12)
        npt.assert_allclose(ld.bkm, expected, atol=1e-12)

    def test_maximally_mixed_kernel_limits(self):
        eps = 0.01
        d = eps * PAULI_X

        def path(t):
            return DensityMatrix(np.eye(2) / 2 + t * d)

        ld = log_derivatives(path, 0.0, drho=d)
        npt.assert_allclose(ld.symmetric, 2 * eps * PAULI_X, atol=1e-12)
        npt.assert_allclose(ld.bkm, 2 * eps * PAULI_X, atol=1e-12)

    def test_defining_identities(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho0 = random_density(rng, 3, min_eig=0.05)
            d = random_hermitian(rng, 3) * 0.05
            d = d - (np.trace(d).real / 3) * np.eye(3)
            ld = log_derivatives(mixture_line_path(rho0, d), 0.0, drho=d)
            for _ in range(10):
                x = random_hermitian(rng, 3)
                lhs = np.trace(d @ x).real
                sld = 0.5 * np.trace(
                    rho0.matrix @ (ld.symmetric @ x + x @ ld.symmetric)
                ).real
                assert abs(lhs - sld) <= 1e-8
                bkm_pair = np.trace(
                    hermitian_part(
                        np.array(
                            _kernel_weight(rho0, ld.bkm)
                        )
                    )
                    @ x
                ).real
                assert abs(lhs - bkm_pair) <= 1e-8

    def test_finite_difference_matches_analytic(self):
        rng = np.random.default_rng(7)
        rho0 = random_density(rng, 3, min_eig=0.05)
        d = random_hermitian(rng, 3) * 0.02
        d = d - (np.trace(d).real / 3) * np.eye(3)
        path = mixture_line_path(rho0, d)
        fd = log_derivatives(path, 0.0)
        an = log_derivatives(path, 0.0, drho=d)
        npt.assert_allclose(fd.symmetric, an.symmetric, atol=1e-9)

    def test_nontraceless_derivative_rejected(self):
        rng = np.random.default_rng(8)
        rho0 = random_density(rng, 2)

        def leaky(t):
            # not trace preserving: norm drifts with t
            m = rho0.matrix * (1 + t)
            return DensityMatrix(m / np.trace(m).real) if abs(t) < 1e-12 else None

        def bad_path(t):
            m = rho0.matrix + t * np.eye(2) * 0.37
            return DensityMatrix(m, allow_boundary=True) if False else _Raw(m)

        with pytest.raises(ValueError, match="trace"):
            log_derivatives(bad_path, 0.0)


class _Raw:
    """Minimal stand-in exposing .matrix for paths leaving the state space."""

    def __init__(self, m):
        self.matrix = m


def _kernel_weight(rho, l_bkm):
    from infogeo.spectral import kernel_apply, logarithmic_mean_kernel

    return kernel_apply(rho.spectral, l_bkm, logarithmic_mean_kernel)


class TestQuantumFisherInfo:
    def test_commuting_equals_classical(self):
        p0 = np.array([0.55, 0.25, 0.2])
        dp = np.array([0.05, -0.02, -0.03])

        def qpath(t):
            return DensityMatrix(np.diag(p0 + t * dp))

        cfam = ParametricFamily.from_map(
            lambda th: FiniteDistribution(p0 + th[0] * dp), 1, 3
        )
        g = fisher_information_matrix(cfam, [0.0])[0, 0]
        for which in (GNS_SLD, BKM, RIGHT):
            npt.assert_allclose(
                quantum_fisher_info(qpath, 0.0, which, drho=np.diag(dp)),
                g,
                rtol=1e-6,
            )

    def test_rotating_qubit_sld_value(self):
        # rho_t = U_t diag(0.9, 0.1) U_t+, U_t = exp(-i t sigma_y / 2):
        # the commutator gives drho = 0.4 sigma_x and L_s = 0.8 sigma_x,
        # hence info = 0.64 (kernel arithmetic done by hand).
        rho0 = np.diag([0.9, 0.1]).astype(complex)

        def path(t):
            u = expm(-0.5j * t * PAULI_Y)
            return DensityMatrix(u @ rho0 @ u.conj().T)

        drho = -0.5j * (PAULI_Y @ rho0 - rho0 @ PAULI_Y)
        npt.assert_allclose(drho, 0.4 * PAULI_X, atol=1e-14)
        info = quantum_fisher_info(path, 0.0, GNS_SLD, drho=drho)
        npt.assert_allclose(info, 0.64, atol=1e-10)

    def test_unknown_kind_lists_known_kinds(self):
        # the metric names of the audits are not report keys
        def path(t):
            raise AssertionError("path evaluated before the kind was checked")

        known = r"\['BKM', 'GNS_SLD', 'RIGHT'\]"
        with pytest.raises(ValueError, match=rf"kind 'bkm'; expected one of {known}$"):
            quantum_fisher_info(path, 0.0, "bkm", drho=np.diag([0.1, -0.1]))

    def test_info_ordering(self):
        # BKM info >= SLD info (reciprocal kernels order the other way)
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho0 = random_density(rng, 3, min_eig=0.02)
            d = random_hermitian(rng, 3) * 0.05
            d = d - (np.trace(d).real / 3) * np.eye(3)
            path = mixture_line_path(rho0, d)
            f_sld = quantum_fisher_info(path, 0.0, GNS_SLD, drho=d)
            f_bkm = quantum_fisher_info(path, 0.0, BKM, drho=d)
            f_right = quantum_fisher_info(path, 0.0, RIGHT, drho=d)
            assert f_bkm >= f_sld - 1e-12
            assert f_right >= f_sld - 1e-12


class TestQuantumCramerRao:
    def test_optimal_sld_observable_saturates(self):
        rho0 = np.diag([0.9, 0.1]).astype(complex)

        def path(t):
            u = expm(-0.5j * t * PAULI_Y)
            return DensityMatrix(u @ rho0 @ u.conj().T)

        drho = 0.4 * PAULI_X
        ld = log_derivatives(path, 0.0, drho=drho)
        f_sld = quantum_fisher_info(path, 0.0, GNS_SLD, drho=drho)
        x_opt = ld.symmetric / f_sld  # zero mean at t0 = 0
        rep = quantum_cramer_rao(path, 0.0, x_opt, drho=drho)
        assert abs(rep.slack[GNS_SLD]) <= 1e-6
        assert rep.slack[BKM] >= -1e-9
        assert rep.slack[RIGHT] >= -1e-9

    def test_bkm_pairing_saturated_on_exponential_family(self):
        rng = np.random.default_rng(10)
        fam = QuantumExponentialFamily(
            random_hermitian(rng, 2), [random_hermitian(rng, 2)]
        )
        path = mean_parametrized_path(fam)
        eta0 = float(quantum_mixture_coords(fam, [0.4])[0])
        from infogeo.quantum import mean_path_derivative
        drho = mean_path_derivative(fam, eta0)
        rep = quantum_cramer_rao(path, eta0, fam.features[0], drho=drho)
        assert abs(rep.bkm_pairing_slack) <= 1e-6
        assert rep.slack[BKM] >= -1e-9

    def test_biased_observable_rejected(self):
        rho0 = np.diag([0.9, 0.1]).astype(complex)

        def path(t):
            u = expm(-0.5j * t * PAULI_Y)
            return DensityMatrix(u @ rho0 @ u.conj().T)

        with pytest.raises(BiasedEstimatorError):
            quantum_cramer_rao(path, 0.0, np.eye(2) * 0.3)

    def test_difference_step_is_the_given_h(self, monkeypatch):
        rng = np.random.default_rng(12)
        rho0 = random_density(rng, 3, min_eig=0.05)
        d = random_hermitian(rng, 3) * 0.05
        d = d - (np.trace(d).real / 3) * np.eye(3)
        line = mixture_line_path(rho0, d)
        evaluated = []

        def path(t):
            evaluated.append(t)
            return line(t)

        y = random_hermitian(rng, 3)
        y = y / np.trace(d @ y).real
        x = y - np.trace(rho0.matrix @ y).real * np.eye(3)
        t0 = 0.01  # along the line, Tr[rho_t x] = t
        # the default step is the documented 1e-5
        quantum_cramer_rao(path, t0, x)
        assert sorted(evaluated) == [t0 - 1e-5, t0, t0 + 1e-5]
        # and it is the module's one step constant
        evaluated.clear()
        h = 1e-3
        monkeypatch.setattr(qmetrics, "_FD_STEP", h)
        quantum_cramer_rao(path, t0, x)
        assert sorted(evaluated) == [t0 - h, t0, t0 + h]

    def test_slack_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            rho0 = random_density(rng, dim, min_eig=0.05)
            d = random_hermitian(rng, dim) * 0.05
            d = d - (np.trace(d).real / dim) * np.eye(dim)
            path = mixture_line_path(rho0, d)
            y = random_hermitian(rng, dim)
            dy = np.trace(d @ y).real
            if abs(dy) < 1e-3:
                continue
            y = y / dy
            x = y - np.trace(rho0.matrix @ y).real * np.eye(dim)
            rep = quantum_cramer_rao(path, 0.0, x, drho=d)
            for k in (GNS_SLD, BKM, RIGHT):
                assert rep.slack[k] >= -1e-9
            assert rep.bkm_pairing_slack >= -1e-9
