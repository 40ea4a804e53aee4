import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm as scipy_expm

import infogeo.kubomori as kubomori
from infogeo.errors import BoundaryError
from infogeo.kubomori import (
    PerturbationProblem,
    expand_log_z,
    gibbs_state,
    kubo_n_point,
    massieu_derivative_check,
)
from infogeo.quantum import DensityMatrix, bkm_metric
from infogeo.spectral import (
    eigh,
    hermitian_part,
    kernel_apply,
    logarithmic_mean_kernel,
)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(a) * scale


def mc_simplex_kubo(rho, vs, n_samples=100_000, seed=0):
    """Monte Carlo oracle: uniform samples on the simplex, averaged trace.

    The delta measure prod da_i delta(sum a - 1) has total mass 1/(n-1)!,
    so the uniform average is divided by (n-1)!.
    """
    rng = np.random.default_rng(seed)
    n = len(vs)
    p = rho.eigenvalues
    u = rho.spectral.eigenvectors
    vt = [u.conj().T @ v @ u for v in vs]
    total = 0.0
    alphas = rng.dirichlet(np.ones(n), size=n_samples)
    for a in alphas:
        m = np.eye(len(p), dtype=complex)
        for ai, v in zip(a, vt):
            m = m @ np.diag(p**ai) @ v
        total += np.trace(m).real
    return total / n_samples / math.factorial(n - 1)


def divided_difference_exp(nodes) -> float:
    """Divided difference of exp over a multiset of real nodes.

    Uses the Opitz representation: exp of the upper bidiagonal matrix with
    the nodes on the diagonal and ones above it; the corner entry is the
    divided difference.  Exact at confluent nodes (it reduces to
    exp(x)/k! there) and free of subtractive cancellation.  scipy's expm
    keeps this oracle independent of the library's.
    """
    x = np.asarray(nodes, dtype=float)
    n = x.size
    if n == 1:
        return float(np.exp(x[0]))
    j = np.diag(x) + np.diag(np.ones(n - 1), 1)
    return float(scipy_expm(j)[0, n - 1].real)


def divided_difference_kubo(rho, vs):
    """Hermite-Genocchi oracle: the d^n-term divided-difference sum.

    In the eigenbasis of rho the simplex integral of
    Tr[rho^{a_1} V_1 ... rho^{a_n} V_n] is the sum over index tuples of
    exp[log p_{i_1}, ..., log p_{i_n}] times V_1[i_1, i_2] ... V_n[i_n, i_1].
    Returned complex, so reversal symmetry can be checked too.
    """
    n = len(vs)
    log_p = np.log(rho.eigenvalues)
    u = rho.spectral.eigenvectors
    vt = [u.conj().T @ hermitian_part(v) @ u for v in vs]
    total = 0j
    for idx in itertools.product(range(rho.dim), repeat=n):
        weight = divided_difference_exp(log_p[list(idx)])
        total += weight * math.prod(vt[k][idx[k], idx[(k + 1) % n]] for k in range(n))
    return total


class TestDividedDifference:
    def test_single_node(self):
        npt.assert_allclose(divided_difference_exp([0.7]), np.exp(0.7))

    def test_two_distinct_nodes(self):
        a, b = 0.3, -1.1
        npt.assert_allclose(
            divided_difference_exp([a, b]),
            (np.exp(a) - np.exp(b)) / (a - b),
            rtol=1e-13,
        )

    def test_confluent_nodes(self):
        # k+1 equal nodes give exp(x)/k!
        x = -0.4
        for k in (1, 2, 3):
            npt.assert_allclose(
                divided_difference_exp([x] * (k + 1)),
                np.exp(x) / math.factorial(k),
                rtol=1e-12,
            )

    def test_near_confluent_stable(self):
        x = 0.2
        for gap in (1e-13, 1e-9, 1e-6):
            val = divided_difference_exp([x, x + gap])
            npt.assert_allclose(val, np.exp(x), rtol=1e-6)

    def test_symmetric_in_nodes(self):
        rng = np.random.default_rng(0)
        nodes = rng.normal(size=4)
        a = divided_difference_exp(nodes)
        b = divided_difference_exp(nodes[::-1])
        npt.assert_allclose(a, b, rtol=1e-12)


class TestKuboNPoint:
    def test_one_point_is_mean(self):
        rng = np.random.default_rng(1)
        rho, _ = gibbs_state(random_hermitian(rng, 3))
        v = random_hermitian(rng, 3)
        npt.assert_allclose(
            kubo_n_point(rho, [v]), np.trace(rho.matrix @ v).real, atol=1e-12
        )

    def test_two_point_centered_is_bkm(self):
        rng = np.random.default_rng(2)
        rho, _ = gibbs_state(random_hermitian(rng, 4))
        v = random_hermitian(rng, 4)
        v0 = v - np.trace(rho.matrix @ v).real * np.eye(4)
        npt.assert_allclose(
            kubo_n_point(rho, [v0, v0]), bkm_metric(rho, v0, v0), atol=1e-10
        )

    def test_two_point_identity_is_one(self):
        rng = np.random.default_rng(3)
        rho, _ = gibbs_state(random_hermitian(rng, 3))
        npt.assert_allclose(kubo_n_point(rho, [np.eye(3)] * 2), 1.0, atol=1e-12)

    def test_commuting_two_by_two_closed_form(self):
        # diagonal case: I_2 = sum_ij logmean(p_i, p_j) v_i v_j
        p = np.array([0.7, 0.3])
        rho = DensityMatrix(np.diag(p))
        v = np.diag([2.0, -1.0])
        expected = 0.7 * 4.0 + 0.3 * 1.0  # diagonal V: only i == j survives
        npt.assert_allclose(kubo_n_point(rho, [v, v]), expected, rtol=1e-12)

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(4)
        rho, _ = gibbs_state(random_hermitian(rng, 3))
        v = random_hermitian(rng, 3)
        w = random_hermitian(rng, 3)
        a = kubo_n_point(rho, [v, w, v, w])
        b = kubo_n_point(rho, [w, v, w, v])
        npt.assert_allclose(a, b, rtol=1e-10)

    def test_linearity_in_slots(self):
        rng = np.random.default_rng(5)
        rho, _ = gibbs_state(random_hermitian(rng, 3))
        v = random_hermitian(rng, 3)
        w = random_hermitian(rng, 3)
        lhs = kubo_n_point(rho, [2 * v + 3 * w, 2 * v + 3 * w])
        rhs = (
            4 * kubo_n_point(rho, [v, v])
            + 9 * kubo_n_point(rho, [w, w])
            + 12 * kubo_n_point(rho, [v, w])
        )
        npt.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(6)
        rho, _ = gibbs_state(random_hermitian(rng, 3))
        v = random_hermitian(rng, 3)
        for n in (2, 3):
            exact = kubo_n_point(rho, [v] * n)
            mc = mc_simplex_kubo(rho, [v] * n, n_samples=100_000, seed=7)
            npt.assert_allclose(exact, mc, rtol=2e-2, atol=2e-2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_divided_difference_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        rho, _ = gibbs_state(random_hermitian(rng, d))
        v, w, x = (random_hermitian(rng, d) for _ in range(3))
        # each distinct list reads the same reversed, up to a cyclic shift
        distinct = {1: [v], 2: [v, w], 3: [v, w, w], 4: [v, w, x, w]}
        for n in range(1, 5):
            for args in ([v] * n, distinct[n]):
                oracle = divided_difference_kubo(rho, args)
                assert abs(oracle.imag) <= 1e-12
                npt.assert_allclose(kubo_n_point(rho, args), oracle.real, atol=1e-12)

    def test_order_cap(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="n <= 8"):
            kubo_n_point(rho, [np.eye(2)] * 9)

    @pytest.mark.parametrize(
        "vs, message",
        [
            ([], "need at least one perturbation"),
            ([np.eye(3)], "perturbation shape (3, 3) != (2, 2)"),
        ],
    )
    def test_bad_perturbations_raise(self, vs, message):
        with pytest.raises(ValueError) as info:
            kubo_n_point(DensityMatrix(np.eye(2) / 2), vs)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "v, max_order, message",
    [
        (np.eye(3), 4, "shape mismatch: H0 (2, 2), V (3, 3)"),
        (np.eye(2), 0, "max_order must lie in 1..6"),
        (np.eye(2), 7, "max_order must lie in 1..6"),
        (np.eye(2), 3.0, "max_order must be an integer, got 3.0"),
        (np.eye(2), True, "max_order must be an integer, got True"),
    ],
)
def test_bad_perturbation_problem_raises(v, max_order, message):
    with pytest.raises(ValueError) as info:
        PerturbationProblem(np.diag([0.0, 1.0]), v, max_order=max_order)
    assert str(info.value) == message


class TestExpandLogZ:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(8)
        h0 = random_hermitian(rng, 4)
        rep = expand_log_z(PerturbationProblem(h0, np.zeros((4, 4))))
        _, log_z0 = gibbs_state(h0)
        npt.assert_allclose(rep.exact_log_z, log_z0, atol=1e-12)
        npt.assert_allclose(rep.terms[1:], 0.0, atol=1e-14)
        npt.assert_allclose(rep.truncation_errors, 0.0, atol=1e-12)

    def test_scalar_shift_exact_at_order_one(self):
        rng = np.random.default_rng(9)
        h0 = random_hermitian(rng, 3)
        c = 0.8
        rep = expand_log_z(PerturbationProblem(h0, c * np.eye(3)))
        _, log_z0 = gibbs_state(h0)
        npt.assert_allclose(rep.exact_log_z, log_z0 - c, atol=1e-12)
        npt.assert_allclose(rep.terms[1], -c, atol=1e-12)
        npt.assert_allclose(rep.terms[2:], 0.0, atol=1e-12)

    def test_partial_sums_are_cumulative(self):
        rng = np.random.default_rng(10)
        rep = expand_log_z(
            PerturbationProblem(random_hermitian(rng, 3), random_hermitian(rng, 3, 0.1))
        )
        npt.assert_allclose(rep.partial_sums, np.cumsum(rep.terms), atol=1e-15)

    def test_truncation_error_scales_as_t4(self):
        rng = np.random.default_rng(11)
        h0 = random_hermitian(rng, 4)
        v = random_hermitian(rng, 4)
        ts = np.array([0.04, 0.02, 0.01])
        errs = []
        for t in ts:
            rep = expand_log_z(PerturbationProblem(h0, t * v, max_order=3))
            errs.append(rep.truncation_errors[-1])
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.2

    def test_monotone_truncation_for_small_v(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h0 = random_hermitian(rng, 4)
            gap = np.ptp(np.linalg.eigvalsh(h0))
            v = random_hermitian(rng, 4)
            v *= 0.1 * gap / np.abs(np.linalg.eigvalsh(v)).max()
            rep = expand_log_z(PerturbationProblem(h0, v, max_order=4))
            assert np.all(np.diff(rep.truncation_errors[1:]) <= 1e-12)
            assert not rep.diverged

    def test_large_dimension_at_order_six(self):
        # 16^6 index tuples: beyond reach of a per-tuple evaluation
        rng = np.random.default_rng(18)
        d = 16
        h0 = random_hermitian(rng, d)
        gap = np.ptp(np.linalg.eigvalsh(h0))
        v = random_hermitian(rng, d)
        v *= 0.05 * gap / np.abs(np.linalg.eigvalsh(v)).max()
        rep = expand_log_z(PerturbationProblem(h0, v, max_order=6))
        assert np.all(np.isfinite(rep.terms))
        assert np.all(np.diff(rep.truncation_errors[1:]) <= 1e-12)
        assert not rep.diverged

    def test_spectral_gap_beyond_double_range(self):
        # exp(-800) underflows to 0, but log p on the block diagonal does not
        v = np.array([[0.1, 0.05], [0.05, -0.1]])
        rep = expand_log_z(PerturbationProblem(np.diag([0.0, 800.0]), v, max_order=4))
        assert np.all(np.isfinite(rep.terms))
        assert rep.truncation_errors[-1] <= 1e-12

    def test_one_matrix_exponential_per_expansion(self, monkeypatch):
        calls = []
        expm = kubomori.expm

        def counting_expm(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(kubomori, "expm", counting_expm)
        rng = np.random.default_rng(19)
        expand_log_z(
            PerturbationProblem(random_hermitian(rng, 5), random_hermitian(rng, 5, 0.1), 6)
        )
        assert calls == [(35, 35)]

    def test_divergence_flagged_for_large_v(self):
        rng = np.random.default_rng(13)
        h0 = random_hermitian(rng, 3, 0.1)
        v = random_hermitian(rng, 3, 30.0)
        rep = expand_log_z(PerturbationProblem(h0, v, max_order=6))
        assert rep.diverged


class TestGibbsState:
    def test_wide_spectrum_names_spread_and_floor(self):
        with pytest.raises(BoundaryError, match=r"spread over 40, .* floor 1e-14") as info:
            gibbs_state(np.diag([0.0, 40.0]))
        assert "allow_boundary" not in str(info.value)

    def test_spread_below_floor_is_faithful(self):
        rho, log_z = gibbs_state(np.diag([0.0, 30.0]))
        npt.assert_allclose(rho.eigenvalues[0], np.exp(-30.0 - log_z), rtol=1e-6)


class TestMassieuDerivativeCheck:
    def test_wide_spectrum(self):
        # p = (1, e^-40) is below the density-matrix faithfulness floor, but
        # the check works from log p and stays finite
        v = np.array([[0.1, 0.05], [0.05, -0.1]])
        prob = PerturbationProblem(np.diag([0.0, 40.0]), v)
        assert expand_log_z(prob).truncation_errors[-1] <= 1e-10
        chk = massieu_derivative_check(prob)
        assert np.isfinite(chk.first) and np.isfinite(chk.second)
        assert chk.first <= 1e-6
        assert chk.second <= 1e-6

    def test_spread_beyond_double_range(self):
        # e^-800 underflows: a BKM norm computed from p would be 0 instead
        # of 2 L(1, e^-800) = 2/800, and the second residual 2.5e-3
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        prob = PerturbationProblem(np.diag([0.0, 800.0]), sigma_x)
        chk = massieu_derivative_check(prob)
        assert type(chk.first) is float and type(chk.second) is float
        assert chk.first <= 1e-6
        assert chk.second <= 1e-6

    def test_matches_density_matrix_kernel(self):
        # mean and BKM norm from the faithful state rho0 and kernel_apply
        rng = np.random.default_rng(18)
        for d in (2, 3, 4):
            prob = PerturbationProblem(
                random_hermitian(rng, d), random_hermitian(rng, d)
            )
            rho0, _ = gibbs_state(prob.h0)
            mean = float(np.trace(rho0.matrix @ prob.v).real)
            v0 = prob.v - mean * np.eye(d)
            metric = float(
                np.trace(
                    kernel_apply(rho0.spectral, v0, logarithmic_mean_kernel) @ v0
                ).real
            )
            exact = [expand_log_z(PerturbationProblem(prob.h0, t * prob.v)).exact_log_z
                     for t in (-0.02, -0.01, 0.0, 0.01, 0.02)]
            g_m2, g_m1, g_0, g_p1, g_p2 = exact
            d1 = (g_m2 - 8 * g_m1 + 8 * g_p1 - g_p2) / 0.12
            d2 = (-g_m2 + 16 * g_m1 - 30 * g_0 + 16 * g_p1 - g_p2) / 0.0012
            chk = massieu_derivative_check(prob)
            npt.assert_allclose(chk.first, abs(d1 + mean), atol=1e-12)
            npt.assert_allclose(chk.second, abs(d2 - metric), atol=1e-12)
    def test_zero_perturbation(self):
        rng = np.random.default_rng(14)
        chk = massieu_derivative_check(
            PerturbationProblem(random_hermitian(rng, 3), np.zeros((3, 3)))
        )
        assert chk.first <= 1e-12
        assert chk.second <= 1e-10

    def test_generic_residuals_small(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            prob = PerturbationProblem(
                random_hermitian(rng, 4), random_hermitian(rng, 4)
            )
            chk = massieu_derivative_check(prob)
            assert chk.first <= 1e-6
            assert chk.second <= 1e-6

    def test_commuting_case_matches_classical_cumulants(self):
        # diagonal problem: the order-1 term is the classical mean and the
        # order-2 term twice the classical variance term; both exact
        rng = np.random.default_rng(16)
        h = rng.normal(size=4)
        v = rng.normal(size=4)
        prob = PerturbationProblem(np.diag(h), np.diag(v))
        rho0, _ = gibbs_state(np.diag(h))
        p = np.diag(rho0.matrix).real
        mean = p @ v
        var = p @ (v - mean) ** 2
        rep = expand_log_z(prob)
        npt.assert_allclose(rep.terms[1], -mean, atol=1e-10)
        npt.assert_allclose(2.0 * rep.terms[2], var, atol=1e-10)
        chk = massieu_derivative_check(prob)
        assert chk.first <= 1e-6
        assert chk.second <= 1e-6

    def test_five_decompositions_per_check(self, monkeypatch):
        # H0 once (mean, metric and the t = 0 stencil point), then H0 + tV at
        # the four stencil points t != 0
        import infogeo.quantum.states as states

        calls = []

        def counting_eigh(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(states, "eigh", counting_eigh)
        rng = np.random.default_rng(20)
        massieu_derivative_check(
            PerturbationProblem(random_hermitian(rng, 4), random_hermitian(rng, 4))
        )
        assert calls == [(4, 4)] * 5

    def test_maximally_mixed_second_derivative(self):
        # centered V at rho = I/d: second derivative is Tr[V^2]/d
        rng = np.random.default_rng(17)
        d = 3
        v = random_hermitian(rng, d)
        v -= (np.trace(v).real / d) * np.eye(d)
        prob = PerturbationProblem(np.zeros((d, d)), v)
        chk = massieu_derivative_check(prob)
        assert chk.second <= 1e-6
        # the metric side of the check is exact: kernel value at the
        # degenerate spectrum is 1/d
        npt.assert_allclose(
            bkm_metric(DensityMatrix(np.eye(d) / d), v, v), np.trace(v @ v).real / d,
            atol=1e-12,
        )

        def g(t):
            return expand_log_z(PerturbationProblem(np.zeros((d, d)), t * v)).exact_log_z

        h = 0.02
        d2 = (g(h) - 2 * g(0) + g(-h)) / h**2
        npt.assert_allclose(d2, np.trace(v @ v).real / d, atol=1e-3)
