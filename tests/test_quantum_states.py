import warnings

import numpy as np
import numpy.testing as npt
import pytest

from infogeo.errors import BoundaryError
from infogeo.quantum import (
    DensityMatrix,
    binary_entropy,
    mixture_entropy_bound,
    mixture_qtangent,
    quantum_tangent_convert,
    score_qtangent,
    von_neumann_entropy,
)
from infogeo.quantum.metrics import bkm_metric
from infogeo.quantum.states import (
    check_density,
    compose_density,
    gibbs_spectrum,
    gibbs_state,
)
from infogeo.spectral import hermitian_part

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(a)


def random_density(rng, dim, min_eig=1e-3):
    w = rng.uniform(min_eig, 1.0, size=dim)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return DensityMatrix((q * w) @ q.conj().T)


def random_traceless(rng, dim, scale=1.0):
    a = random_hermitian(rng, dim) * scale
    return a - (np.trace(a).real / dim) * np.eye(dim)


class TestDensityMatrix:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_boundary_by_default(self):
        with pytest.raises(BoundaryError):
            DensityMatrix(np.diag([1.0, 0.0]))

    def test_boundary_override(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]), allow_boundary=True)
        assert not rho.is_faithful()

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]), allow_boundary=True)

    def test_spectral_cache(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        npt.assert_allclose(rho.spectral.reconstruct(), rho.matrix, atol=1e-12)

    def test_one_matrix_messages(self):
        with pytest.raises(ValueError, match=r"^trace is 2.0, not 1$"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match=r"^negative eigenvalue -0.5$"):
            DensityMatrix(np.diag([1.5, -0.5]), allow_boundary=True)
        with pytest.raises(BoundaryError, match=r"^state is not faithful: min"):
            DensityMatrix(np.diag([1.0, 0.0]))

    def test_rejects_stacks(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 2, 2\)"):
            DensityMatrix(np.stack([np.eye(2) / 2] * 2))


class TestFromSpectrum:
    def test_keeps_the_spectrum_ascending(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        p = np.array([0.5, 0.3, 0.2])  # Gibbs weights arrive descending
        rho = DensityMatrix.from_spectrum(p, q)
        npt.assert_array_equal(rho.eigenvalues, [0.2, 0.3, 0.5])
        npt.assert_array_equal(rho.spectral.eigenvectors, q[:, ::-1])
        npt.assert_array_equal(rho.matrix, hermitian_part((q * p) @ q.conj().T))
        assert not rho.matrix.flags.writeable
        assert not rho.allow_boundary

    def test_messages_match_the_constructor(self):
        u = np.eye(2)
        cases = [
            ([0.7, 0.4], ValueError, "trace is"),
            ([1.0, 0.0], BoundaryError, "state is not faithful"),
        ]
        for p, err, msg in cases:
            for build in (
                lambda: DensityMatrix.from_spectrum(p, u),
                lambda: DensityMatrix(np.diag(p)),
            ):
                with pytest.raises(err, match=msg):
                    build()

    def test_rejects_non_unitary_vectors(self):
        # unit columns that are not orthogonal: the matrix is a state, but
        # (p, u) is not its decomposition
        u = np.array([[1.0, np.sqrt(0.5)], [0.0, np.sqrt(0.5)]])
        with pytest.raises(ValueError, match="not unitary"):
            DensityMatrix.from_spectrum([0.5, 0.5], u)

    def test_gibbs_state_is_the_checked_state_of_its_spectrum(self):
        # gibbs_state skips only the second unitarity check of the vectors
        # that eigh has validated: same matrix, eigenvalues and eigenvectors
        rng = np.random.default_rng(5)
        for dim in (2, 3, 6):
            h = 3.0 * random_hermitian(rng, dim)
            rho, log_z = gibbs_state(h)
            dec, log_p, log_z2 = gibbs_spectrum(h)
            ref = DensityMatrix.from_spectrum(np.exp(log_p), dec.eigenvectors)
            assert log_z == log_z2
            for got, want in (
                (rho.matrix, ref.matrix),
                (rho.eigenvalues, ref.eigenvalues),
                (rho.spectral.eigenvectors, ref.spectral.eigenvectors),
            ):
                assert got.tobytes() == want.tobytes()

    def test_rejects_bad_shapes_and_non_finite_weights(self):
        with pytest.raises(ValueError, match="shapes"):
            DensityMatrix.from_spectrum([0.5, 0.5], np.eye(3))
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix.from_spectrum([np.nan, 1.0], np.eye(2))


class TestCheckDensity:
    def stack(self):
        return np.stack([np.diag([0.5, 0.5]), np.diag([0.9, 0.1]), np.diag([0.2, 0.8])])

    def test_matches_density_matrix(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_density(rng, 3).matrix for _ in range(4)])
        m, dec = check_density(mats)
        for i in range(4):
            rho = DensityMatrix(mats[i])
            npt.assert_array_equal(m[i], rho.matrix)
            npt.assert_array_equal(dec.eigenvalues[i], rho.eigenvalues)
            npt.assert_array_equal(dec.eigenvectors[i], rho.spectral.eigenvectors)

    def test_trace_error_names_worst_index(self):
        mats = self.stack()
        mats[1] *= 1.1
        mats[2] *= 1.3
        with pytest.raises(ValueError, match=r"^stack index 2: trace is 1.3"):
            check_density(mats)

    def test_negative_eigenvalue_names_index(self):
        mats = self.stack()
        mats[1] = np.diag([1.2, -0.2])
        with pytest.raises(ValueError, match=r"^stack index 1: negative eigenvalue"):
            check_density(mats, allow_boundary=True)

    def test_floor_names_index_unless_boundary_allowed(self):
        mats = self.stack()
        mats[0] = np.diag([1.0, 0.0])
        with pytest.raises(BoundaryError, match=r"^stack index 0: state is not faithful"):
            check_density(mats)
        _, dec = check_density(mats, allow_boundary=True)
        assert dec.eigenvalues[0].min() == 0.0


def random_spectra(rng, n, dim):
    """n Dirichlet weight vectors and n QR bases, as the contraction sweep draws them."""
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return rng.dirichlet(np.ones(dim), size=n), np.linalg.qr(g)[0]


class TestComposeDensity:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 32])
    def test_stack_is_bitwise_one_state_at_a_time(self, dim):
        p, u = random_spectra(np.random.default_rng(dim), 6, dim)
        m, dec = compose_density(p, u)
        for i in range(6):
            rho = DensityMatrix.from_spectrum(p[i], u[i])
            for got, want in (
                (m[i], rho.matrix),
                (dec.eigenvalues[i], rho.eigenvalues),
                (dec.eigenvectors[i], rho.spectral.eigenvectors),
            ):
                assert got.tobytes() == want.tobytes()

    def test_inverts_check_density(self):
        p, u = random_spectra(np.random.default_rng(1), 4, 3)
        m, dec = compose_density(p, u)
        m2, dec2 = check_density(m)
        npt.assert_allclose(m2, m, rtol=0, atol=1e-15)
        npt.assert_allclose(dec2.eigenvalues, dec.eigenvalues, rtol=0, atol=1e-15)
        assert np.all(np.diff(dec.eigenvalues, axis=-1) >= 0)

    def test_failures_name_the_stack_index(self):
        p, u = random_spectra(np.random.default_rng(2), 4, 3)
        skewed = u.copy()
        skewed[2, :, 0] *= 1.1
        with pytest.raises(ValueError, match=r"^stack index 2: eigenvectors are not unitary"):
            compose_density(p, skewed)
        heavy = p.copy()
        heavy[1] = [0.5, 0.5, 0.5]
        with pytest.raises(ValueError, match=r"^stack index 1: trace is 1.5"):
            compose_density(heavy, u)
        negative = p.copy()
        negative[3] = [1.1, -0.1, 0.0]
        with pytest.raises(ValueError, match=r"^stack index 3: negative eigenvalue -0.1"):
            compose_density(negative, u, allow_boundary=True)
        with pytest.raises(BoundaryError, match=r"^stack index 3: state is not faithful"):
            compose_density(negative, u)
        undefined = p.copy()
        undefined[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^stack index 0: weights have non-finite"):
            compose_density(undefined, u)
        undefined = u.copy()
        undefined[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^stack index 2: eigenvectors have non-finite"):
            compose_density(p, undefined)

    def test_non_finite_input_is_named_before_the_unitarity_check(self):
        # a NaN in u used to pass the unitarity check (nan > tol is false)
        u = np.eye(2, dtype=complex)
        u[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^eigenvectors have non-finite entries"):
            DensityMatrix.from_spectrum([0.5, 0.5], u)
        # an infinite weight used to raise a RuntimeWarning while composing
        with pytest.raises(ValueError, match=r"^weights have non-finite entries"):
            DensityMatrix.from_spectrum([np.inf, 1.0], np.eye(2))

    def test_huge_vectors_are_not_unitary_under_warnings_as_errors(self):
        # U†U of 1e160 * I used to raise "overflow encountered in matmul"
        # before the vectors could be called non-unitary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=r"^eigenvectors are not unitary: an entry of modulus 1\.000e\+160$",
            ):
                DensityMatrix.from_spectrum([0.5, 0.5], 1e160 * np.eye(2))
            p, u = random_spectra(np.random.default_rng(6), 4, 3)
            u[2] *= 1e200
            with pytest.raises(ValueError, match=r"^stack index 2: eigenvectors are not unitary"):
                compose_density(p, u)
            # non-finite entries are still named as such, inf and nan alike
            for bad in (np.inf, np.nan):
                u = np.eye(2, dtype=complex)
                u[0, 1] = bad
                with pytest.raises(ValueError, match=r"^eigenvectors have non-finite entries"):
                    DensityMatrix.from_spectrum([0.5, 0.5], u)
            # rounding above 1 within the unitarity tolerance passes
            u = np.array([[1.0 + 1e-13, 0.0], [0.0, 1.0]])
            assert DensityMatrix.from_spectrum([0.5, 0.5], u).dim == 2

    def test_weights_that_would_overflow_the_trace_are_named(self):
        # composing used to raise "RuntimeWarning: overflow encountered in add"
        with pytest.raises(ValueError, match=r"^weights up to 1e\+308 overflow the trace"):
            DensityMatrix.from_spectrum([1e308, 1e308], np.eye(2))
        p, u = random_spectra(np.random.default_rng(4), 3, 2)
        p[1] = [1e308, -1e308]
        with pytest.raises(ValueError, match=r"^stack index 1: weights up to 1e\+308"):
            compose_density(p, u)
        # no weights at all: the test passes them on to the trace check
        with pytest.raises(ValueError, match=r"^stack index 0: trace is 0.0, not 1$"):
            compose_density(np.zeros((3, 0)), np.zeros((3, 0, 0)))
        # just below the limit the matrix and its trace stay finite
        with pytest.raises(ValueError, match=r"^trace is 2\.2[0-9]*e\+307, not 1$"):
            DensityMatrix.from_spectrum([2.2e307, 0.0], u[0])

    def test_rejects_mismatched_shapes(self):
        p, u = random_spectra(np.random.default_rng(3), 4, 3)
        for weights, vectors in ((p[:3], u), (p, u[..., :2]), (p[0, 0], u[0])):
            with pytest.raises(ValueError, match="got shapes"):
                compose_density(weights, vectors)
        with pytest.raises(ValueError, match=r"square matrix, got shape \(4, 3, 3\)"):
            DensityMatrix.from_spectrum(p, u)


class TestTangentConvert:
    def test_zero(self):
        rho = DensityMatrix(np.eye(3) / 3)
        out = quantum_tangent_convert(rho, mixture_qtangent(np.zeros((3, 3))), "score")
        npt.assert_allclose(out.matrix, 0.0)

    def test_maximally_mixed_scales_by_inverse_dim(self):
        rng = np.random.default_rng(1)
        rho = DensityMatrix(np.eye(4) / 4)
        x = random_traceless(rng, 4)
        out = quantum_tangent_convert(rho, score_qtangent(x), "mixture")
        npt.assert_allclose(out.matrix, x / 4.0, atol=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = random_density(rng, 4)
            t = mixture_qtangent(random_traceless(rng, 4))
            back = quantum_tangent_convert(
                rho, quantum_tangent_convert(rho, t, "score"), "mixture"
            )
            npt.assert_allclose(back.matrix, t.matrix, atol=1e-10)

    def test_pairing_matches_bkm(self):
        # trace(mixture(x) . y) = bkm(x, y) for score inputs
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        x = score_qtangent(random_traceless(rng, 3))
        y = random_traceless(rng, 3)
        y = y - np.trace(rho.matrix @ y).real * np.eye(3)
        xm = quantum_tangent_convert(rho, x, "mixture")
        lhs = float(np.trace(xm.matrix @ y).real)
        npt.assert_allclose(lhs, bkm_metric(rho, x.matrix, y), atol=1e-11)

    def test_mixture_must_be_traceless(self):
        with pytest.raises(ValueError, match="traceless"):
            mixture_qtangent(np.eye(2))


class TestEntropy:
    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d) / d)
            npt.assert_allclose(von_neumann_entropy(rho), np.log(d))

    def test_pure_state_zero(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]), allow_boundary=True)
        assert von_neumann_entropy(rho) == 0.0


class TestMixtureEntropyBound:
    def test_equal_states_slack_is_binary_entropy(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        for lam in (0.2, 0.5, 0.9):
            rep = mixture_entropy_bound(rho, rho, lam)
            npt.assert_allclose(rep.slack, binary_entropy(lam), atol=1e-12)

    def test_orthogonal_pure_states_equality(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]), allow_boundary=True)
        sig = DensityMatrix(np.diag([0.0, 1.0]), allow_boundary=True)
        rep = mixture_entropy_bound(rho, sig, 0.5)
        npt.assert_allclose(rep.lhs, np.log(2.0), atol=1e-14)
        npt.assert_allclose(rep.slack, 0.0, atol=1e-14)

    def test_seeded_sweep_nonnegative_slack(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d, min_eig=0.0 if rng.random() < 0.3 else 1e-3)
            sig = random_density(rng, d)
            lam = float(rng.uniform(0.01, 0.99))
            rep = mixture_entropy_bound(rho, sig, lam)
            assert rep.slack >= -1e-10

    def test_rejects_degenerate_weight(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="weight"):
            mixture_entropy_bound(rho, rho, 1.0)
