import numpy as np
import numpy.testing as npt
import pytest

from infogeo.classical import (
    FiniteDistribution,
    alpha_embed,
    bhattacharyya_angle,
    entropy,
    fisher_metric,
    hellinger_distance,
    mixture_tangent,
    parallel_transport,
    score_tangent,
    tangent_convert,
    uniform,
)
from infogeo.errors import BoundaryError


def random_distribution(rng, n, floor=1e-3):
    p = rng.uniform(floor, 1.0, size=n)
    return FiniteDistribution(p / p.sum())


def random_mixture_tangent(rng, n, scale=1.0):
    v = rng.normal(size=n) * scale
    return mixture_tangent(v - v.mean())


def kl(p, q):
    return float(np.sum(p * (np.log(p) - np.log(q))))


class TestFiniteDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            FiniteDistribution([0.5, 0.4])

    def test_rejects_boundary_without_override(self):
        with pytest.raises(BoundaryError):
            FiniteDistribution([1.0, 0.0])

    def test_boundary_override(self):
        rho = FiniteDistribution([1.0, 0.0], allow_boundary=True)
        assert not rho.is_faithful()

    def test_immutable(self):
        rho = uniform(3)
        with pytest.raises(ValueError):
            rho.probs[0] = 0.9


class TestTangentConvert:
    def test_zero_maps_to_zero(self):
        rho = uniform(4)
        out = tangent_convert(rho, mixture_tangent(np.zeros(4)), "exponential")
        npt.assert_allclose(out.vec, 0.0)

    def test_two_point_uniform(self):
        # v = (a, -a) over uniform(2): divide by 1/2, already centered
        rho = uniform(2)
        out = tangent_convert(rho, mixture_tangent([0.3, -0.3]), "exponential")
        npt.assert_allclose(out.vec, [0.6, -0.6], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = random_distribution(rng, 6)
            t = random_mixture_tangent(rng, 6)
            back = tangent_convert(
                rho, tangent_convert(rho, t, "exponential"), "mixture"
            )
            npt.assert_allclose(back.vec, t.vec, atol=1e-12)

    def test_pairing_preserved(self):
        # sum(v * x') is the same whether x' is computed from v or given
        rng = np.random.default_rng(1)
        rho = random_distribution(rng, 5)
        v = random_mixture_tangent(rng, 5)
        x = score_tangent(rng.normal(size=5))
        score = tangent_convert(rho, v, "exponential")
        lhs = fisher_metric(rho, v, x)
        rhs = fisher_metric(rho, score, x)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            tangent_convert(uniform(3), mixture_tangent([0.1, -0.1]), "mixture")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: score_tangent([[0.1, -0.1]]),
             r"^tangent vector has shape \(1, 2\), expected \(2,\)$"),
            (lambda: score_tangent(0.5), r"^tangent vector has shape \(\), expected \(1,\)$"),
            (lambda: score_tangent([0.1, np.nan]), "^tangent vector must be finite$"),
            (lambda: mixture_tangent([]), "^tangent vector must be non-empty$"),
            (lambda: tangent_convert(uniform(2), score_tangent([0.1, -0.1]), "score"),
             r"^unknown representation 'score'; expected one of "
             r"\['exponential', 'mixture'\]$"),
        ],
    )
    def test_bad_tangent_names_the_fault(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestFisherMetric:
    def test_zero_tangent(self):
        rho = uniform(3)
        z = score_tangent(np.zeros(3))
        assert fisher_metric(rho, z, z) == 0.0

    def test_bernoulli_coordinate_score_value(self):
        # d log rho/d eta at eta=1/2 is (-2, 2); metric = 1/(eta(1-eta)) = 4
        rho = FiniteDistribution([0.5, 0.5])
        s = score_tangent([-2.0, 2.0])
        npt.assert_allclose(fisher_metric(rho, s, s), 4.0, atol=1e-14)

    def test_bernoulli_against_kl_finite_difference(self):
        # d^2/de^2 KL(rho_{eta+e} || rho_eta) = G(eta)
        eta, h = 0.5, 1e-4
        p = np.array([1 - eta, eta])
        def shifted(e):
            return np.array([1 - eta - e, eta + e])
        d2 = (kl(shifted(h), p) + kl(shifted(-h), p)) / h**2
        s = score_tangent([-1.0 / (1 - eta), 1.0 / eta])
        npt.assert_allclose(fisher_metric(FiniteDistribution(p), s, s), d2, rtol=1e-6)

    def test_full_simplex_metric_matrix_against_kl_oracle(self):
        # |Omega| = 3 full family at the uniform point: the metric matrix in
        # canonical coordinates is the Hessian of delta -> KL(rho_{xi+delta},
        # rho_xi) at zero, estimated here by mixed central differences
        from infogeo.classical import full_simplex_family, mixture_coords

        fam = full_simplex_family(3)
        pt = fam.point([0.0, 0.0])
        rho = pt.distribution()
        eta = mixture_coords(pt)
        scores = [
            score_tangent(-(fam.features[i] - eta[i])) for i in range(2)
        ]
        h = 1e-3

        def kl_from_shift(d):
            q = fam.point(pt.xi + d).probs()
            return kl(q, rho.probs)

        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i], ej[j] = h, h
                fd = (
                    kl_from_shift(ei + ej)
                    - kl_from_shift(ei - ej)
                    - kl_from_shift(-ei + ej)
                    + kl_from_shift(-ei - ej)
                ) / (4 * h * h)
                npt.assert_allclose(
                    fisher_metric(rho, scores[i], scores[j]), fd, atol=1e-6
                )

    def test_positive_definite_on_scores(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = random_distribution(rng, 5)
            x = rng.normal(size=5)
            x = x - rho.probs @ x
            val = fisher_metric(rho, score_tangent(x), score_tangent(x))
            if np.abs(x).max() < 1e-12:
                assert abs(val) < 1e-12
            else:
                assert val > 0


class TestEntropyAndEmbeddings:
    def test_uniform_entropy(self):
        for n in (2, 5, 16):
            npt.assert_allclose(entropy(uniform(n)), np.log(n), atol=1e-14)

    def test_near_deterministic_entropy(self):
        eps = 1e-9
        rho = FiniteDistribution([1 - eps, eps], allow_boundary=True)
        assert 0 < entropy(rho) < 3e-8

    def test_alpha_zero_embedding_on_unit_sphere(self):
        vec = alpha_embed(uniform(4), 0.0)
        npt.assert_allclose(vec, 0.5)
        npt.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-14)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="alpha=1"):
            alpha_embed(uniform(3), 1.0)

    def test_hellinger_self_distance(self):
        rho = uniform(5)
        assert hellinger_distance(rho, rho) == 0.0

    def test_hellinger_orthogonal_limit(self):
        eps = 1e-12
        a = FiniteDistribution([1 - eps, eps], allow_boundary=True)
        b = FiniteDistribution([eps, 1 - eps], allow_boundary=True)
        npt.assert_allclose(hellinger_distance(a, b), np.sqrt(2), atol=1e-5)

    def test_hellinger_squared_identity(self):
        rng = np.random.default_rng(3)
        rho = random_distribution(rng, 6)
        sig = random_distribution(rng, 6)
        d2 = hellinger_distance(rho, sig) ** 2
        bc = np.sqrt(rho.probs * sig.probs).sum()
        npt.assert_allclose(d2, 2 - 2 * bc, atol=1e-12)

    def test_bhattacharyya_angle_bounds_chord(self):
        rng = np.random.default_rng(4)
        rho = random_distribution(rng, 4)
        sig = random_distribution(rng, 4)
        assert bhattacharyya_angle(rho, sig) >= hellinger_distance(rho, sig) - 1e-12


class TestParallelTransport:
    def test_identity_at_same_point(self):
        rng = np.random.default_rng(5)
        rho = random_distribution(rng, 4)
        v = random_mixture_tangent(rng, 4)
        out_m = parallel_transport(rho, rho, v, "minus")
        npt.assert_allclose(out_m.vec, v.vec, atol=1e-15)
        s = tangent_convert(rho, v, "exponential")
        out_p = parallel_transport(rho, rho, s, "plus")
        npt.assert_allclose(out_p.vec, s.vec, atol=1e-12)

    def test_transported_score_centered(self):
        rng = np.random.default_rng(6)
        rho = random_distribution(rng, 5)
        sig = random_distribution(rng, 5)
        x = score_tangent(rng.normal(size=5))
        out = parallel_transport(rho, sig, x, "plus")
        assert abs(sig.probs @ out.vec) < 1e-12

    def test_duality_pairing(self):
        # G_sigma(plus-transported x, minus-transported v) = G_rho(x, v)
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = random_distribution(rng, 6)
            sig = random_distribution(rng, 6)
            x = rng.normal(size=6)
            x = score_tangent(x - rho.probs @ x)
            v = random_mixture_tangent(rng, 6)
            lhs = fisher_metric(
                sig,
                parallel_transport(rho, sig, x, "plus"),
                parallel_transport(rho, sig, v, "minus"),
            )
            rhs = fisher_metric(rho, x, v)
            npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_unknown_transport(self):
        rho = uniform(2)
        with pytest.raises(ValueError, match="unknown transport"):
            parallel_transport(rho, rho, mixture_tangent([0.1, -0.1]), "zero")
