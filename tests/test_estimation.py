import numpy as np
import numpy.testing as npt
import pytest

from infogeo.classical import (
    ExponentialFamily,
    FiniteDistribution,
    ParametricFamily,
    check_unbiased,
    cramer_rao_report,
    empirical_distribution,
    entropy,
    estimate_from_data,
    fisher_information_matrix,
    fit_mixture_coords,
    maxent_fit,
    mixture_coords,
    covariance,
    sample,
    uniform,
)
from infogeo.errors import BiasedEstimatorError, FeasibilityError


def bernoulli_family():
    """Mean-parametrized Bernoulli as a user-supplied map."""
    return ParametricFamily.from_map(
        lambda th: FiniteDistribution([1 - th[0], th[0]]), 1, 2
    )


def kl(p, q):
    return float(np.sum(p * (np.log(p) - np.log(q))))


class TestFisherInformation:
    def test_bernoulli_closed_form(self):
        fam = bernoulli_family()
        for eta in (0.2, 0.5, 0.7):
            g = fisher_information_matrix(fam, [eta])
            npt.assert_allclose(g, [[1.0 / (eta * (1 - eta))]], rtol=1e-8)

    def test_bernoulli_against_kl_oracle(self):
        fam = bernoulli_family()
        eta, h = 0.35, 1e-4
        p = np.array([1 - eta, eta])
        d2 = (
            kl(np.array([1 - eta - h, eta + h]), p)
            + kl(np.array([1 - eta + h, eta - h]), p)
        ) / h**2
        g = fisher_information_matrix(fam, [eta])
        npt.assert_allclose(g[0, 0], d2, rtol=1e-6)

    def test_reparametrization_covariance(self):
        # theta -> 2*theta rescales G by 4
        base = bernoulli_family()
        stretched = ParametricFamily.from_map(
            lambda th: FiniteDistribution([1 - 2 * th[0], 2 * th[0]]), 1, 2
        )
        g1 = fisher_information_matrix(base, [0.6])
        g2 = fisher_information_matrix(stretched, [0.3])
        npt.assert_allclose(g2, 4.0 * g1, rtol=1e-6)

    def test_constant_family_zero_information(self):
        fam = ParametricFamily.from_map(lambda th: uniform(3), 1, 3)
        npt.assert_allclose(fisher_information_matrix(fam, [0.4]), 0.0, atol=1e-12)

    def test_exponential_wrapper_exact_scores(self):
        rng = np.random.default_rng(0)
        efam = ExponentialFamily(rng.normal(size=(2, 6)))
        exact = ParametricFamily.from_exponential(efam, "canonical")
        fd = ParametricFamily.from_map(
            lambda th: efam.point(th).distribution(), 2, 6
        )
        theta = rng.normal(size=2)
        npt.assert_allclose(
            fisher_information_matrix(exact, theta),
            fisher_information_matrix(fd, theta),
            rtol=1e-6,
        )

    def test_canonical_information_is_covariance(self):
        rng = np.random.default_rng(1)
        efam = ExponentialFamily(rng.normal(size=(3, 8)))
        pt = efam.point(rng.normal(size=3))
        g = fisher_information_matrix(
            ParametricFamily.from_exponential(efam, "canonical"), pt.xi
        )
        npt.assert_allclose(g, covariance(pt), atol=1e-12)

    def test_mixture_information_inverts_covariance(self):
        rng = np.random.default_rng(2)
        efam = ExponentialFamily(rng.normal(size=(2, 7)))
        pt = efam.point(rng.normal(size=2) * 0.5)
        eta = mixture_coords(pt)
        g = fisher_information_matrix(
            ParametricFamily.from_exponential(efam, "mixture"), eta
        )
        npt.assert_allclose(covariance(pt) @ g, np.eye(2), atol=1e-8)


class TestUnbiasedness:
    def test_bernoulli_identity_estimator(self):
        fam = bernoulli_family()
        for eta in (0.1, 0.5, 0.9):
            resid = check_unbiased(fam, [eta], [[0.0, 1.0]])
            npt.assert_allclose(resid, 0.0, atol=1e-14)

    def test_shifted_estimator(self):
        fam = bernoulli_family()
        resid = check_unbiased(fam, [0.4], [[0.25, 1.25]])
        npt.assert_allclose(resid, [0.25], atol=1e-14)

    def test_feature_estimators_in_mixture_coords(self):
        rng = np.random.default_rng(3)
        efam = ExponentialFamily(rng.normal(size=(2, 6)))
        fam = ParametricFamily.from_exponential(efam, "mixture")
        eta = mixture_coords(efam.point(rng.normal(size=2) * 0.3))
        resid = check_unbiased(fam, eta, efam.features)
        npt.assert_allclose(resid, 0.0, atol=1e-10)


class TestCramerRao:
    def test_bernoulli_saturates(self):
        fam = bernoulli_family()
        rep = cramer_rao_report(fam, [0.3], [[0.0, 1.0]])
        npt.assert_allclose(rep.covariance, [[0.3 * 0.7]], rtol=1e-10)
        npt.assert_allclose(rep.gap, 0.0, atol=1e-10)
        npt.assert_allclose(rep.efficiency, 1.0, rtol=1e-8)

    def test_noise_strictly_widens_variance(self):
        # adding a component orthogonal to 1 and the score keeps the
        # estimator locally unbiased but adds variance (needs |Omega| > 2
        # so the orthogonal complement is nontrivial)
        efam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        fam = ParametricFamily.from_exponential(efam, "mixture")
        eta = np.array([0.8])
        pt = fit_mixture_coords(efam, eta)
        p = pt.probs()
        score = fam.scores(eta)[0]
        g = np.array([1.0, -2.0, 5.0])
        for b in (np.ones(3), score):
            g = g - (p @ (g * b)) / (p @ (b * b)) * b
        est = efam.features[0] + g
        rep = cramer_rao_report(fam, eta, [est])
        assert rep.min_gap_eigenvalue > 1e-6
        assert rep.efficiency < 1.0

    def test_exponential_family_gap_vanishes(self):
        rng = np.random.default_rng(4)
        efam = ExponentialFamily(rng.normal(size=(2, 8)))
        fam = ParametricFamily.from_exponential(efam, "mixture")
        eta = mixture_coords(efam.point(rng.normal(size=2) * 0.4))
        rep = cramer_rao_report(fam, eta, efam.features)
        scale = np.linalg.norm(rep.covariance)
        assert np.linalg.norm(rep.gap) <= 1e-8 * scale
        assert rep.efficiency is None  # two parameters

    def test_biased_estimator_rejected(self):
        fam = bernoulli_family()
        with pytest.raises(BiasedEstimatorError) as err:
            cramer_rao_report(fam, [0.4], [[0.5, 1.5]])
        assert err.value.residual is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimator_rejected(self, bad):
        # a NaN residual passes the bias test, so finiteness is checked first
        fam = ParametricFamily.from_exponential(
            ExponentialFamily(np.array([[0.0, 1.0, 2.0]])), "mixture"
        )
        with pytest.raises(ValueError, match="^estimators must be finite$"):
            cramer_rao_report(fam, [1.0], [[0.0, bad, 2.0]])


class TestMaxentFit:
    def test_symmetry_forces_uniform(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        pt = maxent_fit(fam, [1.0])
        npt.assert_allclose(pt.xi, 0.0, atol=1e-12)

    def test_brute_force_grid(self):
        # |Omega|=3, one constraint: the feasible set is a segment; the fit
        # entropy must beat a 10^4-point grid scan of that segment.
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        target = 0.8
        pt = maxent_fit(fam, [target])
        fit_entropy = entropy(pt.distribution())
        # p = (p0, p1, p2), p1 + 2 p2 = target, sum = 1; parametrize by p2
        lo = max(0.0, (target - 1.0))
        hi = target / 2.0
        best = -np.inf
        for p2 in np.linspace(lo + 1e-9, hi - 1e-9, 10_000):
            p1 = target - 2 * p2
            p0 = 1.0 - p1 - p2
            if min(p0, p1, p2) <= 0:
                continue
            best = max(best, entropy(np.array([p0, p1, p2])))
        assert fit_entropy >= best - 1e-6

    def test_feature_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(2, 6))
        target = mixture_coords(ExponentialFamily(f).point([0.3, -0.2]))
        c = 3.7
        pt1 = maxent_fit(ExponentialFamily(f), target)
        scaled = f.copy()
        scaled[0] *= c
        target2 = target.copy()
        target2[0] *= c
        pt2 = maxent_fit(ExponentialFamily(scaled), target2)
        npt.assert_allclose(pt2.xi[0], pt1.xi[0] / c, atol=1e-10)
        npt.assert_allclose(pt2.xi[1], pt1.xi[1], atol=1e-10)
        npt.assert_allclose(pt2.probs(), pt1.probs(), atol=1e-10)

    def test_infeasible_target(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(FeasibilityError, match="infeasible"):
            maxent_fit(fam, [2.5])

    def test_tolerance_reaches_solver(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        for tol in (1e-2, 1e-6, 1e-10):
            resid = abs(mixture_coords(maxent_fit(fam, [1.9], tol=tol))[0] - 1.9)
            assert resid < tol
        # a loose tolerance stops the Newton iteration early
        loose = abs(mixture_coords(maxent_fit(fam, [1.9], tol=1e-2))[0] - 1.9)
        assert loose > 1e-6


class TestSampling:
    def test_single_draw_one_hot(self):
        h = sample(uniform(4), 1, seed=0)
        assert h.sum() == 1 and (h == 1).sum() == 1

    def test_seed_repeatable(self):
        rho = uniform(5)
        npt.assert_array_equal(sample(rho, 1000, seed=42), sample(rho, 1000, seed=42))

    def test_law_of_large_numbers(self):
        h = sample(uniform(4), 1_000_000, seed=7)
        npt.assert_allclose(h / 1e6, 0.25, atol=5e-3)

    def test_empirical_no_smoothing_when_full(self):
        emp = empirical_distribution([5, 5, 10])
        assert emp.smoothing_epsilon is None
        npt.assert_allclose(emp.distribution.probs, [0.25, 0.25, 0.5])

    def test_empirical_smoothing_on_zero_cells(self):
        emp = empirical_distribution([0, 10])
        assert emp.smoothing_epsilon == pytest.approx(1.0 / 20.0)
        assert emp.distribution.probs.min() > 0
        npt.assert_allclose(emp.distribution.probs.sum(), 1.0, atol=1e-14)


class TestEstimateFromData:
    def test_exact_recovery_from_family_member(self):
        rng = np.random.default_rng(6)
        fam = ExponentialFamily(rng.normal(size=(2, 5)))
        pt = fam.point([0.4, -0.6])
        fitted = estimate_from_data(fam, pt.probs() * 1000.0)
        npt.assert_allclose(fitted.xi, pt.xi, atol=1e-10)

    def test_means_always_matched(self):
        rng = np.random.default_rng(7)
        fam = ExponentialFamily(rng.normal(size=(2, 6)))
        hist = rng.integers(1, 50, size=6).astype(float)
        fitted = estimate_from_data(fam, hist)
        npt.assert_allclose(
            mixture_coords(fitted), fam.features @ (hist / hist.sum()), atol=1e-10
        )

    def test_recovery_within_three_standard_errors(self):
        rng = np.random.default_rng(8)
        fam = ExponentialFamily(rng.normal(size=(2, 6)))
        truth = fam.point([0.3, -0.5])
        m = 200_000
        hist = sample(truth.distribution(), m, seed=123)
        fitted = estimate_from_data(fam, hist)
        se = np.sqrt(np.diag(np.linalg.inv(covariance(truth))) / m)
        assert np.all(np.abs(fitted.xi - truth.xi) <= 3 * se)

    @pytest.mark.parametrize(
        "hist, message",
        [
            ([1.0, -1.0, 2.0], "1-d finite nonnegative"),
            ([1.0, np.nan, 2.0], "1-d finite nonnegative"),
            ([1.0, np.inf, 2.0], "1-d finite nonnegative"),
            ([[1.0, 1.0, 2.0]], "1-d finite nonnegative"),
            ([0.0, 0.0, 0.0], "histogram is empty"),
        ],
    )
    def test_rejects_what_empirical_distribution_rejects(self, hist, message):
        fam = ExponentialFamily([[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match=message):
            empirical_distribution(hist)
        with pytest.raises(ValueError, match=message):
            estimate_from_data(fam, hist)

    def test_histogram_of_the_wrong_size(self):
        fam = ExponentialFamily([[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match=r"shape \(4,\), expected \(3,\)"):
            estimate_from_data(fam, [1.0, 1.0, 1.0, 1.0])


def test_infeasible_maxent_fit_normalises_only_inside_the_solver(monkeypatch):
    import infogeo.classical.families as families

    # the normalisations: the oracle's fused one, and log_sum_exp for any
    # point normalised outside the solver
    calls = []
    original = families.log_sum_exp
    oracle = ExponentialFamily._oracle

    def counting(x):
        calls.append(1)
        return original(x)

    def counting_oracle(family, xi):
        calls.append(1)
        return oracle(family, xi)

    monkeypatch.setattr(families, "log_sum_exp", counting)
    monkeypatch.setattr(ExponentialFamily, "_oracle", counting_oracle)
    fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
    with pytest.raises(FeasibilityError, match="feature 0 with target 2.5"):
        fit_mixture_coords(fam, [2.5])
    solver_calls = len(calls)
    calls.clear()
    with pytest.raises(FeasibilityError, match="feature 0 with target 2.5"):
        maxent_fit(fam, [2.5])
    assert solver_calls > 0
    assert len(calls) == solver_calls
