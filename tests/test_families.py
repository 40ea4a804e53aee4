import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import logsumexp

from infogeo.classical import (
    ExponentialFamily,
    covariance,
    entropy,
    entropy_relative_to_base,
    fit_mixture_coords,
    full_simplex_family,
    legendre_check,
    massieu,
    mixture_coords,
)
from infogeo.errors import ConvergenceError, FeasibilityError


def coin_family():
    # Omega = {0, 1}, single feature f = indicator(1), uniform base
    return ExponentialFamily(np.array([[0.0, 1.0]]))


def random_family(rng, omega, n, base=False):
    features = rng.normal(size=(n, omega))
    b = rng.normal(size=omega) * 0.5 if base else None
    return ExponentialFamily(features, b)


class TestExponentialFamily:
    def test_rejects_too_many_features(self):
        with pytest.raises(ValueError, match="overdetermine"):
            ExponentialFamily(np.eye(3))

    def test_rejects_dependent_features(self):
        f = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
        with pytest.raises(ValueError, match="dependent"):
            ExponentialFamily(f)

    def test_rejects_constant_feature(self):
        # constant features are degenerate: the covariance is singular
        with pytest.raises(ValueError, match="dependent"):
            ExponentialFamily(np.array([[1.0, 1.0, 1.0]]))

    def test_point_normalizes(self):
        rng = np.random.default_rng(0)
        fam = random_family(rng, 6, 2, base=True)
        pt = fam.point([0.3, -1.2])
        npt.assert_allclose(pt.probs().sum(), 1.0, atol=1e-14)


class TestMassieuAndMoments:
    def test_symmetric_coin(self):
        pt = coin_family().point([0.0])
        npt.assert_allclose(massieu(pt), np.log(2.0), atol=1e-15)
        npt.assert_allclose(mixture_coords(pt), [0.5], atol=1e-15)
        npt.assert_allclose(covariance(pt), [[0.25]], atol=1e-15)

    def test_massieu_gradient_is_minus_means(self):
        # central finite difference of Psi in xi_j equals -eta_j
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(10):
            fam = random_family(rng, 8, 3, base=True)
            xi = rng.normal(size=3)
            pt = fam.point(xi)
            eta = mixture_coords(pt)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (fam.massieu(xi + e) - fam.massieu(xi - e)) / (2 * h)
                npt.assert_allclose(fd, -eta[j], rtol=1e-6, atol=1e-9)

    def test_covariance_is_massieu_hessian(self):
        rng = np.random.default_rng(2)
        fam = random_family(rng, 6, 2)
        xi = np.array([0.4, -0.7])
        h = 1e-4
        v = covariance(fam.point(xi))
        for j in range(2):
            for k in range(2):
                ej, ek = np.zeros(2), np.zeros(2)
                ej[j], ek[k] = h, h
                fd = (
                    fam.massieu(xi + ej + ek)
                    - fam.massieu(xi + ej - ek)
                    - fam.massieu(xi - ej + ek)
                    + fam.massieu(xi - ej - ek)
                ) / (4 * h * h)
                npt.assert_allclose(fd, v[j, k], rtol=1e-4, atol=1e-7)

    def test_massieu_convex(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            fam = random_family(rng, 10, 4)
            pt = fam.point(rng.normal(size=4))
            min_eig = np.linalg.eigvalsh(covariance(pt)).min()
            assert min_eig >= -1e-10

    def test_no_overflow_at_large_xi(self):
        fam = coin_family()
        val = fam.massieu([800.0])
        npt.assert_allclose(val, 0.0, atol=1e-12)  # log(1 + e^-800) ~ 0

    def test_point_matches_logsumexp_at_large_xi(self):
        # |xi| ~ 700 puts log densities near +-2000, far past exp's range
        rng = np.random.default_rng(4)
        for base in (False, True):
            fam = random_family(rng, 9, 3, base=base)
            xi = 700.0 * np.sign(rng.normal(size=3))
            s = fam.base_log_density - xi @ fam.features
            assert np.abs(s).max() > 710.0
            pt = fam.point(xi)
            assert np.isfinite(pt.psi)
            npt.assert_allclose(pt.psi, logsumexp(s), rtol=1e-15)
            for log_p in (pt.log_p, fam.log_probs(xi)):
                assert np.all(np.isfinite(log_p))
                npt.assert_allclose(log_p, s - logsumexp(s), rtol=1e-15, atol=1e-12)
            npt.assert_allclose(pt.probs().sum(), 1.0, atol=1e-14)


class TestLegendre:
    def test_coin_identity_at_zero(self):
        pt = coin_family().point([0.0])
        s = entropy(pt.distribution())
        npt.assert_allclose(s, np.log(2.0), atol=1e-14)
        npt.assert_allclose(s, massieu(pt) + pt.xi @ mixture_coords(pt), atol=1e-14)

    def test_identity_and_gradient_uniform_base(self):
        rng = np.random.default_rng(4)
        fam = random_family(rng, 6, 2)
        pt = fam.point([0.5, -0.3])
        report = legendre_check(pt)
        assert report.identity_residual < 1e-12
        assert np.abs(report.gradient_residual).max() < 1e-6

    def test_identity_with_nonuniform_base(self):
        # with a base weight the Legendre pair uses the relative entropy
        rng = np.random.default_rng(5)
        fam = random_family(rng, 5, 2, base=True)
        pt = fam.point([0.2, 0.1])
        report = legendre_check(pt)
        assert report.identity_residual < 1e-12
        assert np.abs(report.gradient_residual).max() < 1e-6
        s_rel = entropy_relative_to_base(pt)
        npt.assert_allclose(
            s_rel, massieu(pt) + float(pt.xi @ mixture_coords(pt)), atol=1e-12
        )


class TestFitMixtureCoords:
    def test_symmetry_forces_zero(self):
        # Omega={0,1,2}, f=omega, mean 1 -> uniform, xi=0
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        pt = fit_mixture_coords(fam, [1.0])
        npt.assert_allclose(pt.xi, [0.0], atol=1e-12)
        npt.assert_allclose(pt.probs(), np.full(3, 1 / 3), atol=1e-12)

    def test_near_boundary_target(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        pt = fit_mixture_coords(fam, [1.999])
        npt.assert_allclose(mixture_coords(pt), [1.999], atol=1e-10)
        assert abs(pt.xi[0]) > 3.0

    def test_random_targets_matched(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            fam = random_family(rng, 8, 3)
            # draw a feasible target as the means of a random member
            target = mixture_coords(fam.point(rng.normal(size=3)))
            pt = fit_mixture_coords(fam, target)
            npt.assert_allclose(mixture_coords(pt), target, atol=1e-10)

    def test_warm_start(self):
        rng = np.random.default_rng(7)
        fam = random_family(rng, 6, 2)
        target = mixture_coords(fam.point([0.5, 0.5]))
        pt = fit_mixture_coords(fam, target, xi0=np.array([0.49, 0.51]))
        npt.assert_allclose(mixture_coords(pt), target, atol=1e-10)

    def test_infeasible_raises(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(ConvergenceError):
            fit_mixture_coords(fam, [2.5])

    def test_full_simplex_family_covers_interior(self):
        fam = full_simplex_family(4)
        target = np.array([0.1, 0.2, 0.4])
        pt = fit_mixture_coords(fam, target)
        npt.assert_allclose(pt.probs(), [0.3, 0.1, 0.2, 0.4], atol=1e-10)


class TestDualNewtonStops:
    @pytest.mark.parametrize("target", [2.5, -0.1])
    def test_infeasible_target_names_feature_and_target(self, target):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(FeasibilityError) as info:
            fit_mixture_coords(fam, [target])
        assert f"feature 0 with target {target!r}" in str(info.value)
        assert isinstance(info.value, ConvergenceError)
        npt.assert_allclose(info.value.residual, abs(target - np.clip(target, 0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        fam = random_family(np.random.default_rng(0), 5, 2)
        with pytest.raises(ValueError, match="target means must be finite"):
            fit_mixture_coords(fam, [0.1, bad])

    def test_wrong_target_shape_rejected(self):
        fam = random_family(np.random.default_rng(0), 5, 2)
        with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
            fit_mixture_coords(fam, [0.1, 0.2, 0.3])

    def test_budget_exhausted_near_origin_is_convergence_error(self):
        fam = random_family(np.random.default_rng(1), 5, 2)
        target = mixture_coords(fam.point([0.5, -0.5]))
        with pytest.raises(ConvergenceError) as info:
            fit_mixture_coords(fam, target, max_iter=1)
        assert not isinstance(info.value, FeasibilityError)
        assert "no convergence in 1 iterations" in str(info.value)
