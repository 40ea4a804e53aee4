import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.special import logsumexp

import infogeo.kubomori as kubomori
from infogeo.kubomori import PerturbationProblem, expand_log_z
from infogeo.projection import HamiltonianStep
from infogeo.quantum import DensityMatrix, bkm_metric
from infogeo.maps import run_contraction_audit
from infogeo.spectral import (
    Kernel,
    SpectralDecomposition,
    _count,
    _kernel_pairing,
    _known,
    _real,
    _vector,
    eigh,
    expm,
    hermitian_part,
    kernel_apply,
    log_sum_exp,
    logarithmic_mean_kernel,
    log_difference_kernel,
    symmetric_inverse_kernel,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(scale * a)


def random_density(rng, dim, min_eig=1e-3):
    w = rng.uniform(min_eig, 1.0, size=dim)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return hermitian_part((q * w) @ q.conj().T)


def bkm_quadrature(rho, x, order=64):
    """Gauss-Legendre evaluation of integral_0^1 rho^a X rho^(1-a) da."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    dec = eigh(rho)
    u = dec.eigenvectors
    xt = u.conj().T @ x @ u
    p = dec.eigenvalues
    acc = np.zeros_like(xt)
    for ai, wi in zip(a, w):
        acc += wi * (p**ai)[:, None] * xt * (p ** (1 - ai))[None, :]
    return u @ acc @ u.conj().T


class TestReaders:
    def test_count_takes_python_and_numpy_integers(self):
        assert _count(np.int64(3), "n", 1) == 3
        assert type(_count(np.int64(3), "n")) is int
        assert _count(7, "n") == 7

    @pytest.mark.parametrize("bad", [True, False, "3", 3.0, 2.5, np.float64(3.0), None])
    def test_count_refuses_what_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            _count(bad, "n")

    def test_count_minimum_names_the_value(self):
        with pytest.raises(ValueError, match=r"^n must be >= 2 \(why\), got 1$"):
            _count(1, "n", 2, " (why)")

    @pytest.mark.parametrize(
        "bad", [np.float64(0.5), [0.5], [[0.5, 0.5]], np.zeros((2, 1))]
    )
    def test_vector_refuses_other_shapes(self, bad):
        with pytest.raises(ValueError, match=r"^v has shape \(.*\), expected \(2,\)$"):
            _vector(bad, 2, "v")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vector_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^v must be finite$"):
            _vector([0.0, bad], 2, "v")

    @pytest.mark.parametrize(
        "x, sign, message",
        [(np.nan, "positive", "must be positive"),
         (0.0, "positive", "must be positive"),
         (-1e-300, "nonnegative", "must be nonnegative"),
         (np.inf, "positive", "must be finite"),
         (np.nan, "finite", "must be finite"),
         (-(10**400), "nonnegative", "must be nonnegative"),
         (10**400, "positive", "must be finite"),
         (True, "finite", "must be a real number"),
         ("0.1", "finite", "must be a real number")],
    )
    def test_real_sign_then_finite(self, x, sign, message):
        with pytest.raises(ValueError, match=f"^x {message}"):
            _real(x, "x", sign)
        assert _real(np.float32(0.5), "x", sign) == 0.5
        assert _real(0, "x", "nonnegative") == 0.0

    def test_known_lists_the_names(self):
        assert _known(("a", "b"), "b", "letter") == "b"
        with pytest.raises(ValueError, match=r"^unknown letter 'c'; expected one of \['a', 'b'\]$"):
            _known({"b": 1, "a": 2}, "c", "letter")


class TestEigh:
    def test_identity(self):
        dec = eigh(np.eye(3))
        npt.assert_allclose(dec.eigenvalues, np.ones(3))
        npt.assert_allclose(dec.reconstruct(), np.eye(3), atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        dec = eigh(np.diag([3.0, 1.0, 2.0]))
        npt.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        # characteristic polynomial l^2 - 1 by hand
        dec = eigh(PAULI_X)
        npt.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 6)
        dec = eigh(a)
        npt.assert_allclose(dec.reconstruct(), a, atol=1e-12)
        u = dec.eigenvectors
        npt.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            eigh(np.array([[np.nan, 0], [0, 1.0]]))

    def test_huge_entries_validate_without_overflow(self):
        # squared entries of 1e200 overflow; the norms of a / max|a| do not
        dec = eigh(np.diag([1e200, -1e200]))
        npt.assert_array_equal(dec.eigenvalues, [-1e200, 1e200])
        stack = eigh(np.stack([1e200 * PAULI_X, np.eye(2), np.zeros((2, 2))]))
        npt.assert_allclose(
            stack.eigenvalues, [[-1e200, 1e200], [1.0, 1.0], [0.0, 0.0]]
        )

    def test_huge_entries_still_validated(self, monkeypatch):
        solve = np.linalg.eigh

        def wrong(a):
            w, u = solve(a)
            return 2.0 * w, u

        monkeypatch.setattr(np.linalg, "eigh", wrong)
        with pytest.raises(ValueError, match="reconstruction residual"):
            eigh(np.diag([1e200, -1e200]))

    def test_huge_entries_validated_against_small_wrong_spectrum(self, monkeypatch):
        # the rescaling is chosen from the input, not from the spectrum that
        # is being validated, so a wrong spectrum far below 1e150 is caught
        solve = np.linalg.eigh

        def wrong(a):
            w, u = solve(a)
            return 1e-200 * w, u

        monkeypatch.setattr(np.linalg, "eigh", wrong)
        with pytest.raises(ValueError, match="reconstruction residual"):
            eigh(np.diag([1e200, -1e200]))
        with pytest.raises(ValueError, match="reconstruction residual"):
            eigh(np.stack([np.eye(2), np.diag([1e200, -1e200])]))

    def test_non_unitary_vectors_caught(self, monkeypatch):
        # (w/4, 2u) reconstructs a exactly, since powers of two scale
        # exactly, but U†U = 4I: only the unitarity check can catch it.
        # In a stack only the last decomposition is scaled.
        solve = np.linalg.eigh

        def scaled(a):
            w, u = solve(a)
            if a.ndim == 2:
                return w / 4.0, 2.0 * u
            w[-1] /= 4.0
            u[-1] *= 2.0
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", scaled)
        with pytest.raises(
            ValueError,
            match=r"^eigendecomposition failed validation: reconstruction "
            r"residual 0\.000e\+00, unitarity residual 4\.243e\+00$",
        ):
            eigh(np.diag([1.0, 2.0]))
        with pytest.raises(
            ValueError, match=r"^stack index 1: .*unitarity residual 4\.243e\+00$"
        ):
            eigh(np.stack([np.eye(2), np.diag([1.0, 2.0])]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eigh(np.ones((2, 3)))


class TestKernelApply:
    def test_constant_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 4)
        x = random_hermitian(rng, 4)
        one = Kernel("one", lambda p, q: np.ones_like(p + q))
        npt.assert_allclose(kernel_apply(rho, x, one), x, atol=1e-12)

    def test_degenerate_spectrum_scales(self):
        rng = np.random.default_rng(4)
        x = random_hermitian(rng, 3)
        rho = np.eye(3) / 3.0
        out = kernel_apply(rho, x, logarithmic_mean_kernel)
        npt.assert_allclose(out, x / 3.0, atol=1e-13)

    def test_log_mean_closed_form_2x2(self):
        # rho = diag(e,1)/(e+1); off-diagonal of Pauli-x picks up the
        # logarithmic mean (p-q)/(log p - log q) with p/q = e, so p*(e-1)/1
        # relative to the smaller eigenvalue: value (e-1)/(e+1).
        z = np.e + 1.0
        rho = np.diag([np.e, 1.0]) / z
        out = kernel_apply(rho, PAULI_X, logarithmic_mean_kernel)
        expected = ((np.e / z - 1.0 / z) / 1.0) * PAULI_X
        npt.assert_allclose(out, expected, atol=1e-14)

    def test_log_mean_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4, 5, 6):
            rho = random_density(rng, dim)
            x = random_hermitian(rng, dim)
            closed = kernel_apply(rho, x, logarithmic_mean_kernel)
            quad = bkm_quadrature(rho, x)
            npt.assert_allclose(closed, quad, atol=1e-8)

    def test_linear_in_operand(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 5)
        x = random_hermitian(rng, 5)
        y = random_hermitian(rng, 5)
        lhs = kernel_apply(rho, 2.0 * x - 3.0 * y, logarithmic_mean_kernel)
        rhs = 2.0 * kernel_apply(rho, x, logarithmic_mean_kernel) - 3.0 * kernel_apply(
            rho, y, logarithmic_mean_kernel
        )
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_log_mean_and_log_difference_are_reciprocal(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        x = random_hermitian(rng, 4)
        back = kernel_apply(
            rho, kernel_apply(rho, x, logarithmic_mean_kernel), log_difference_kernel
        )
        npt.assert_allclose(back, x, atol=1e-11)

    def test_symmetric_inverse_solves_lyapunov(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4)
        d = random_hermitian(rng, 4)
        l = kernel_apply(rho, d, symmetric_inverse_kernel)
        npt.assert_allclose(0.5 * (rho @ l + l @ rho), d, atol=1e-12)

    def test_nonfinite_kernel_names_pair(self):
        bad = Kernel("bad", lambda p, q: (p - q) / 0.0)
        rho = np.diag([0.75, 0.25])
        with pytest.raises(ValueError, match="non-finite at eigenvalue pair"):
            kernel_apply(rho, PAULI_X, bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_apply(np.eye(3) / 3, PAULI_X, logarithmic_mean_kernel)

    def test_near_degenerate_eigenvalues_stable(self):
        # gaps of a few ulp up to 1e-6 relative: the ordered formula is
        # accurate at each, with no cutoff to switch to the p = q limit
        for gap in (1e-15, 1e-13, 1e-9, 1e-6):
            rho = np.diag([0.5 + gap, 0.5 - gap])
            rho = rho / np.trace(rho)
            out = kernel_apply(rho, PAULI_X, logarithmic_mean_kernel)
            npt.assert_allclose(out, 0.5 * PAULI_X, atol=1e-8)

    def test_zero_eigenvalue_pair_takes_the_limit(self):
        # p = q = 0 is confluent: the log mean is 0 there (and against any
        # q > 0), where the off-diagonal formula gives 0/0
        k = logarithmic_mean_kernel.matrix([0.0, 0.0, 0.5])
        npt.assert_array_equal(k, np.diag([0.0, 0.0, 0.5]))
        stacked = logarithmic_mean_kernel.matrix(np.array([[0.0, 0.0, 0.5]] * 2))
        npt.assert_array_equal(stacked, [k, k])


KERNELS = [logarithmic_mean_kernel, log_difference_kernel, symmetric_inverse_kernel]


def drawn_spectrum(rng, kind, d):
    """Weights summing to 1: Dirichlet, spread over 12 decades (both ends
    present), or near-confluent, each 1 +- 1e-13 before normalising."""
    if kind == "dirichlet":
        w = rng.dirichlet(np.ones(d))
    elif kind == "decades":
        w = 10.0 ** rng.uniform(-12.0, 0.0, d)
        w[:2] = 1.0, 1e-12
    else:
        w = 1.0 + 1e-13 * rng.choice([-1.0, 1.0], d)
    return np.sort(w / w.sum())


def drawn_decomposition(rng, kind, d, stack):
    """A decomposition (p, u) of drawn spectra and unitaries, of shape ``stack``."""
    p = np.stack([drawn_spectrum(rng, kind, d) for _ in range(int(np.prod(stack)))])
    u, _ = np.linalg.qr(rng.normal(size=(len(p), d, d)) + 1j * rng.normal(size=(len(p), d, d)))
    return SpectralDecomposition(p.reshape(*stack, d), u.reshape(*stack, d, d))


def pairing_inputs(seed, kind, d, stack):
    rng = np.random.default_rng(seed)
    dec = drawn_decomposition(rng, kind, d, stack)
    # non-Hermitian operands: the pairing takes their Hermitian parts
    x, y = (rng.normal(size=(*stack, d, d)) + 1j * rng.normal(size=(*stack, d, d))
            for _ in range(2))
    return dec, x, y


class TestKernelPairing:
    """``_kernel_pairing`` against ``Re Tr[y kernel_apply(rho, x)]``."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dirichlet", "decades", "confluent"]),
        d=st.sampled_from([2, 3, 5, 8, 16, 32]),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        kernel=st.sampled_from(KERNELS),
    )
    def test_matches_the_traced_kernel_image(self, seed, kind, d, stack, kernel):
        dec, x, y = pairing_inputs(seed, kind, d, stack)
        xy = _kernel_pairing(dec, x, y, kernel)
        xx = _kernel_pairing(dec, x, x, kernel)
        yy = _kernel_pairing(dec, y, y, kernel)
        assert xy.shape == xx.shape == stack
        assert (xx >= 0).all() and (yy >= 0).all()
        image = kernel_apply(dec, x, kernel)
        traced = np.trace(y @ image, axis1=-2, axis2=-1).real
        squared = np.trace(x @ image, axis1=-2, axis2=-1).real
        # both sides round the rotations of x at the scale |K(x)| |y| (at
        # least xx for y = x), which at 12 decades exceeds the value itself
        # when x has little weight where K is large
        norm = lambda a: np.linalg.norm(a, axis=(-2, -1))
        npt.assert_array_less(np.abs(xy - traced), 1e-12 * norm(image) * norm(hermitian_part(y)))
        npt.assert_array_less(np.abs(xx - squared), 1e-12 * norm(image) * norm(hermitian_part(x)))
        # an equal copy of x takes the general path to the same bits
        npt.assert_array_equal(_kernel_pairing(dec, x, x.copy(), kernel), xx)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dirichlet", "decades", "confluent"]),
        d=st.sampled_from([2, 3, 5, 8, 16, 32]),
        kernel=st.sampled_from(KERNELS),
    )
    def test_stack_matches_per_matrix(self, seed, kind, d, kernel):
        dec, x, y = pairing_inputs(seed, kind, d, (4,))
        xy = _kernel_pairing(dec, x, y, kernel)
        xx = _kernel_pairing(dec, x, x, kernel)
        for i in range(4):
            one = SpectralDecomposition(dec.eigenvalues[i], dec.eigenvectors[i])
            assert _kernel_pairing(one, x[i], y[i], kernel).tobytes() == xy[i].tobytes()
            assert _kernel_pairing(one, x[i], x[i], kernel).tobytes() == xx[i].tobytes()

    def test_state_matrix_is_decomposed(self):
        rng = np.random.default_rng(50)
        rho, x = random_density(rng, 4), random_hermitian(rng, 4)
        npt.assert_array_equal(
            _kernel_pairing(rho, x, x, log_difference_kernel),
            _kernel_pairing(eigh(rho), x, x, log_difference_kernel))

    @pytest.mark.parametrize("states", [
        np.diag([1.0, 0.0]),
        np.stack([np.diag([0.5, 0.5]), np.diag([0.7, 0.3]), np.diag([1.0, 0.0])]),
    ])
    def test_failures_read_as_kernel_apply(self, states):
        ops = np.broadcast_to(PAULI_X, states.shape)
        messages = []
        for call in (lambda: kernel_apply(states, ops, log_difference_kernel),
                     lambda: _kernel_pairing(states, ops, ops, log_difference_kernel),
                     lambda: _kernel_pairing(states, ops, 2 * ops, log_difference_kernel)):
            with pytest.raises(ValueError, match="non-finite at eigenvalue pair") as info:
                call()
            messages.append(str(info.value))
        assert messages[1] == messages[2] == messages[0]

    def test_operand_dimension_reads_as_kernel_apply(self):
        rho = np.eye(3) / 3
        with pytest.raises(ValueError) as want:
            kernel_apply(rho, PAULI_X, logarithmic_mean_kernel)
        for x, y in ((PAULI_X, PAULI_X), (PAULI_X, np.eye(3)), (np.eye(3), PAULI_X)):
            with pytest.raises(ValueError) as info:
                _kernel_pairing(rho, x, y, logarithmic_mean_kernel)
            assert str(info.value) == str(want.value)

    @pytest.mark.parametrize("metric", ["gns", "bkm"])
    def test_sweep_never_applies_a_kernel(self, metric, monkeypatch):
        # one Kernel.matrix per side of each pass (dim 32: 7 passes of at
        # most 8 trials; dim 4: one pass), no kernel image at all
        applied, matrices = [], []
        for module in [m for name, m in sys.modules.items() if name.startswith("infogeo")]:
            if hasattr(module, "kernel_apply"):
                monkeypatch.setattr(module, "kernel_apply",
                                    lambda *a: applied.append(a) or kernel_apply(*a))
        matrix = Kernel.matrix
        monkeypatch.setattr(Kernel, "matrix",
                            lambda self, p: matrices.append(p.shape) or matrix(self, p))
        for dim, passes in ((4, 1), (32, 7)):
            matrices.clear()
            run_contraction_audit(metric, dim, 50, 11)
            assert len(matrices) == 2 * passes
        assert applied == []


class TestKernelMatrix:
    @pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9, 1e-12, 1e-13])
    def test_widely_separated_eigenvalues(self, ratio):
        # decades apart, log q - log p has no cancellation, so the closed
        # form is accurate to a few ulps; log1p((p - q)/q) with p < q was not
        p, q = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
        closed = (q - p) / (np.log(q) - np.log(p))
        for spectrum in ([p, q], [q, p]):
            mean = logarithmic_mean_kernel.matrix(spectrum)
            diff = log_difference_kernel.matrix(spectrum)
            npt.assert_allclose(mean[[0, 1], [1, 0]], closed, rtol=1e-14, atol=0)
            npt.assert_allclose(diff[[0, 1], [1, 0]], 1.0 / closed, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "kernel",
        [logarithmic_mean_kernel, log_difference_kernel, symmetric_inverse_kernel],
    )
    def test_exactly_symmetric(self, kernel):
        # spectra spread over many decades, one matrix and a stack
        p = np.random.default_rng(12).uniform(size=(4, 7)) ** 12
        for spectrum in (p[0], p):
            k = kernel.matrix(spectrum)
            assert np.array_equal(k, k.swapaxes(-1, -2))

    def test_bkm_norm_at_a_nearly_pure_state(self):
        # sigma_x at diag(1e-13, 1)/(1 + 1e-13): twice the logarithmic mean
        p, q = 1e-13 / (1.0 + 1e-13), 1.0 / (1.0 + 1e-13)
        rho = DensityMatrix(np.diag([p, q]))
        closed = 2.0 * (q - p) / (np.log(q) - np.log(p))
        npt.assert_allclose(bkm_metric(rho, PAULI_X, PAULI_X), closed, rtol=1e-14)

    def test_every_gap_matches_mpmath(self):
        # each spectrum holds s and s (1 + 10^-k), k = 0..15, and its reverse:
        # every relative gap down to 1e-15 in both orders, exact p = q pairs
        # on the diagonal, and no cutoff between them
        mpmath = pytest.importorskip("mpmath")

        def log_mean(p, q):
            return p if p == q else (p - q) / (mpmath.log(p) - mpmath.log(q))

        exact = {
            logarithmic_mean_kernel: log_mean,
            log_difference_kernel: lambda p, q: 1 / log_mean(p, q),
            symmetric_inverse_kernel: lambda p, q: 2 / (p + q),
        }
        gaps = np.concatenate([[0.0], 10.0 ** -np.arange(16.0)])
        one = np.array([1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-3, 1.0])
        spectra = one[:, None] * (1.0 + gaps)
        spectra = np.concatenate([spectra, spectra[:, ::-1]])
        worst = 0.0
        with mpmath.workdps(50):
            for kernel, f in exact.items():
                stacked = kernel.matrix(spectra)
                for p, k in zip(spectra, stacked):
                    assert np.array_equal(kernel.matrix(p), k)
                    for i, j in np.ndindex(k.shape):
                        want = f(mpmath.mpf(p[i]), mpmath.mpf(p[j]))
                        err = abs(mpmath.mpf(k[i, j]) - want) / want
                        worst = max(worst, float(err))
        assert worst <= 1e-15
        # the log mean is exactly 0 at (0, 0) and against 0.5, in both orders
        for spectrum in ([0.0, 0.0, 0.5], [0.5, 0.0, 0.0]):
            k = logarithmic_mean_kernel.matrix(spectrum)
            npt.assert_array_equal(k, np.diag(spectrum))


class TestLogSumExp:
    def test_rounds_like_scipy(self):
        rng = np.random.default_rng(30)
        cases = [rng.normal(scale=sc, size=n) for sc in (1e-3, 1.0, 50.0, 900.0)
                 for n in (1, 2, 7, 300)]
        cases += [np.zeros(5), np.array([3.0, 3.0, -1.0]), np.array([-800.0, 0.0])]
        for x in cases:
            assert log_sum_exp(x) == float(logsumexp(x))

    def test_no_overflow(self):
        assert log_sum_exp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)
        assert log_sum_exp(np.array([-1000.0])) == -1000.0

    def test_unique_maximum_is_the_general_formula(self):
        def general(x):
            m = x.max()
            top = x == m
            k = np.count_nonzero(top)
            w = np.exp(x - m)
            w[top] = 0.0
            return float(np.log1p(w.sum() / k) + np.log(k) + m)

        rng = np.random.default_rng(31)
        for scale in (1e-12, 1e-3, 1.0, 50.0, 900.0):
            for n in (1, 2, 3, 16, 300):
                x = rng.normal(scale=scale, size=n)
                tied = x.copy()
                tied[rng.permutation(n)[: max(2, n // 4)]] = x.max()
                for case in (x, tied, -x, np.round(x)):
                    assert log_sum_exp(case).hex() == general(case).hex()


class TestStacks:
    """Stacks (..., d, d) give bitwise the per-matrix results."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_eigh_matches_per_matrix(self, dim):
        rng = np.random.default_rng(40 + dim)
        stack = np.stack([random_hermitian(rng, dim) for _ in range(6)])
        dec = eigh(stack)
        assert dec.eigenvalues.shape == (6, dim)
        assert dec.dim == dim
        for a, w, u in zip(stack, dec.eigenvalues, dec.eigenvectors):
            one = eigh(a)
            npt.assert_array_equal(w, one.eigenvalues)
            npt.assert_array_equal(u, one.eigenvectors)
        npt.assert_array_equal(
            dec.reconstruct()[4], eigh(stack[4]).reconstruct()
        )

    def test_hermitian_part_matches_per_matrix(self):
        rng = np.random.default_rng(41)
        stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        out = hermitian_part(stack)
        npt.assert_array_equal(out[1, 2], hermitian_part(stack[1, 2]))

    @pytest.mark.parametrize(
        "kernel",
        [logarithmic_mean_kernel, log_difference_kernel, symmetric_inverse_kernel],
    )
    def test_kernels_match_per_matrix(self, kernel):
        rng = np.random.default_rng(42)
        states = np.stack([random_density(rng, 4) for _ in range(5)])
        states[2] = np.diag([0.25, 0.25, 0.3, 0.2])  # confluent pair
        xs = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        dec = eigh(states)
        k = kernel.matrix(dec.eigenvalues)
        out = kernel_apply(dec, xs, kernel)
        for i in range(5):
            npt.assert_array_equal(k[i], kernel.matrix(dec.eigenvalues[i]))
            npt.assert_array_equal(out[i], kernel_apply(states[i], xs[i], kernel))

    def test_nonfinite_matrix_named_by_index(self):
        stack = np.stack([np.eye(2)] * 4).astype(complex)
        stack[3, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"^stack index 3: matrix has non-finite"):
            eigh(stack)
        grid = np.stack([stack[:2], stack[2:]])
        with pytest.raises(ValueError, match=r"^stack index \(1, 1\): matrix"):
            eigh(grid)

    def test_nonfinite_kernel_named_by_index(self):
        states = np.stack([np.diag([0.5, 0.5]), np.diag([0.7, 0.3]), np.diag([1.0, 0.0])])
        with pytest.raises(
            ValueError,
            match=r"^stack index 2: kernel 'log_difference' non-finite at "
            r"eigenvalue pair \(np.float64\(0.0\)",
        ):
            kernel_apply(states, np.stack([PAULI_X] * 3), log_difference_kernel)

    def test_one_matrix_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^matrix has non-finite entries$"):
            eigh(np.array([[np.nan, 0], [0, 1.0]]))
        with pytest.raises(ValueError, match=r"^kernel 'log_difference' non-finite"):
            kernel_apply(np.diag([1.0, 0.0]), PAULI_X, log_difference_kernel)
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            hermitian_part(np.ones((2, 3)))


def random_generator(rng, size, one_norm):
    """A rate matrix (nonnegative off-diagonal, zero column sums) of the
    given 1-norm."""
    q = rng.exponential(size=(size, size))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    return q * (one_norm / np.abs(q).sum(axis=0).max())


def duhamel_inputs(monkeypatch, h0, v, order):
    """The block matrices that expand_log_z hands to its matrix exponential."""
    seen = []

    def recording(a):
        seen.append(a)
        return scipy_expm(a)

    monkeypatch.setattr(kubomori, "expm", recording)
    expand_log_z(PerturbationProblem(h0, v, order))
    return seen


def assert_matches_scipy(a):
    want = scipy_expm(a)
    got = expm(a)
    assert got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestExpm:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_duhamel_block_matrices(self, monkeypatch, d):
        rng = np.random.default_rng(50 + d)
        h0 = random_hermitian(rng, d)
        v = random_hermitian(rng, d)
        v *= 0.3 / np.linalg.norm(v, 2)
        for order in range(1, 7):
            (a,) = duhamel_inputs(monkeypatch, h0, v, order)
            assert a.shape == ((order + 1) * d,) * 2
            assert_matches_scipy(a)

    def test_spectral_gap_forces_squaring(self, monkeypatch):
        # the gap of 800 of TestExpandLogZ; exp(-800) underflows in the result
        v = np.array([[0.1, 0.05], [0.05, -0.1]])
        (a,) = duhamel_inputs(monkeypatch, np.diag([0.0, 800.0]), v, 4)
        assert np.abs(a).sum(axis=0).max() > 100
        assert_matches_scipy(a)

    def test_triangular_squaring_matches_mpmath(self, monkeypatch):
        # the squarings used to leave the O(1) entries 2.8e-14 off (250 ulps)
        mpmath = pytest.importorskip("mpmath")
        v = np.array([[0.1, 0.05], [0.05, -0.1]])
        (a,) = duhamel_inputs(monkeypatch, np.diag([0.0, 800.0]), v, 4)
        assert not np.tril(a, -1).any() and not a.imag.any()
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(a.real.tolist())).tolist()
        want = np.array(exact, dtype=float)
        assert np.abs(expm(a) - want).max() <= 1e-16

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_random_upper_triangular(self, complex_input):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        for size, scale in ((3, 5.0), (6, 40.0), (10, 5.0)):
            a = np.triu(rng.normal(size=(size, size))) * scale
            a[np.diag_indices(size)] = -np.abs(np.diagonal(a))
            if complex_input:
                a = a + 1j * np.triu(rng.normal(size=(size, size)))
            with mpmath.workdps(40):
                exact = mpmath.expm(mpmath.matrix(a.tolist())).tolist()
            want = np.array(exact, dtype=complex)
            got = expm(a)
            assert got.dtype == a.dtype
            assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()

    def test_repeated_eigenvalue_on_the_superdiagonal(self):
        # lam I + N with N nilpotent: exp = e^lam (I + N + N^2 / 2) exactly,
        # and every superdiagonal pair is confluent
        n = np.array([[0.0, 6.0, 2.0], [0.0, 0.0, -5.0], [0.0, 0.0, 0.0]])
        a = -3.0 * np.eye(3) + n
        exact = np.exp(-3.0) * (np.eye(3) + n + n @ n / 2)
        npt.assert_allclose(expm(a), exact, rtol=1e-15, atol=1e-15)
        assert_matches_scipy(a)

    @pytest.mark.parametrize("one_norm", [1e-3, 0.05, 0.5, 2.0, 20.0, 999.0])
    def test_rate_generators(self, one_norm):
        rng = np.random.default_rng(int(one_norm * 1000))
        for size in (2, 3, 6, 12):
            assert_matches_scipy(random_generator(rng, size, one_norm))

    @pytest.mark.parametrize("t", [0.01, 0.3, 2.0, 40.0])
    def test_unitary_step(self, t):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 8):
            h = random_hermitian(rng, d)
            u = expm(-1j * t * h)
            npt.assert_allclose(u, HamiltonianStep(h).unitary(t), rtol=0, atol=1e-12)
            assert_matches_scipy(-1j * t * h)

    @pytest.mark.parametrize("b", [1.0, 10.0, 100.0])
    def test_nilpotent_input(self, b):
        # A^2 = 0 makes every power norm vanish (a zero eta), so the degree
        # and the scaling are set by the backward-error term on |A|^(2m+1)
        a = b * np.array([[1.0, 1.0], [-1.0, -1.0]])
        npt.assert_allclose(expm(a), np.eye(2) + a, rtol=1e-12, atol=0)
        assert_matches_scipy(a)

    @pytest.mark.parametrize("b", [1e4, 1e8])
    def test_nonnormal_input_is_not_overscaled(self, b):
        # ||A||_1 = b + 1 would ask for ~log2(b) squarings, but A^2 = I keeps
        # the power norms at 1; a scaling from ||A||_1 alone loses 7 digits at 1e8
        a = np.array([[1.0, b], [0.0, -1.0]])
        exact = np.array([[np.e, b * np.sinh(1.0)], [0.0, 1.0 / np.e]])
        npt.assert_allclose(expm(a), exact, rtol=1e-13, atol=1e-13 * b)
        assert_matches_scipy(a)

    def test_diagonal_input_is_exact(self):
        assert expm(np.array([[0.7]]))[0, 0] == np.exp(0.7)
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        w = np.array([-800.0, 0.0, 2.5 + 1j])
        assert np.array_equal(expm(np.diag(w)), np.diag(np.exp(w)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        a = np.eye(3)
        a[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            expm(a)

    def test_norm_beyond_the_power_range_raises(self):
        # a^10 would overflow; a diagonal matrix takes no powers and passes
        with pytest.raises(ValueError, match="1-norm at most 1e\\+30, got 2.000e\\+50"):
            expm(np.array([[0.0, 1e50], [-1e50, 1e50]]))
        assert expm(np.diag([-1e50, 0.0]))[1, 1] == 1.0

    def test_non_square_input_raises(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.ones((2, 3)))
