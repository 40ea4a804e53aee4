import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special

import infogeo.classical.families as families
from infogeo.classical import (
    ExponentialFamily,
    christoffel,
    covariance,
    full_simplex_family,
    geodesic,
    geodesic_acceleration,
    geodesic_mixture_coords,
    skewness_tensor,
)


def random_family(rng, omega, n):
    return ExponentialFamily(rng.normal(size=(n, omega)))


class TestSkewnessAndChristoffel:
    def test_plus_one_is_flat(self):
        rng = np.random.default_rng(0)
        fam = random_family(rng, 6, 3)
        pt = fam.point(rng.normal(size=3))
        npt.assert_allclose(christoffel(pt, 1.0), 0.0)

    def test_symmetric_coin_vanishes_for_all_alpha(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        pt = fam.point([0.0])
        npt.assert_allclose(skewness_tensor(pt), 0.0, atol=1e-15)
        for alpha in (-1.0, 0.0, 0.5):
            npt.assert_allclose(christoffel(pt, alpha), 0.0, atol=1e-14)

    def test_tensor_is_symmetric(self):
        rng = np.random.default_rng(1)
        fam = random_family(rng, 7, 3)
        t = skewness_tensor(fam.point(rng.normal(size=3)))
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            npt.assert_allclose(t, np.transpose(t, perm), atol=1e-13)

    def test_tensor_matches_covariance_gradient(self):
        # d V_ij / d xi_k = -T_ijk under the exp(-xi.f) convention; the sign
        # is fixed by this finite-difference oracle.
        rng = np.random.default_rng(2)
        fam = random_family(rng, 6, 2)
        xi = rng.normal(size=2)
        t = skewness_tensor(fam.point(xi))
        h = 1e-5
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dv = (covariance(fam.point(xi + e)) - covariance(fam.point(xi - e))) / (
                2 * h
            )
            npt.assert_allclose(dv, -t[:, :, k], rtol=1e-5, atol=1e-8)


class TestGeodesics:
    def test_plus_one_is_straight_line(self):
        rng = np.random.default_rng(3)
        fam = random_family(rng, 5, 2)
        xi0 = np.array([0.2, -0.1])
        v0 = np.array([0.5, 0.3])
        path = geodesic(fam.point(xi0), v0, alpha=1.0, t_max=1.0, dt=0.05)
        expected = xi0[None, :] + path.times[:, None] * v0[None, :]
        npt.assert_allclose(path.xis, expected, atol=1e-14)
        assert not path.truncated

    def test_minus_one_affine_in_mixture_coords(self):
        rng = np.random.default_rng(4)
        fam = random_family(rng, 5, 2)
        pt0 = fam.point(rng.normal(size=2) * 0.3)
        path = geodesic(pt0, np.array([0.6, -0.4]), alpha=-1.0, t_max=1.0, dt=5e-3)
        etas = geodesic_mixture_coords(path)
        # eta(t) must interpolate linearly between its endpoints in t
        frac = (path.times / path.times[-1])[:, None]
        line = etas[0] + frac * (etas[-1] - etas[0])
        npt.assert_allclose(etas, line, atol=1e-6)

    def test_zero_alpha_great_circle_on_sphere(self):
        # On the full simplex the Fisher metric maps to the round sphere in
        # square-root coordinates; alpha=0 geodesics are constant-speed
        # great-circle arcs (spherical linear interpolation).
        rng = np.random.default_rng(5)
        fam = full_simplex_family(4)
        pt0 = fam.point(rng.normal(size=3) * 0.2)
        path = geodesic(pt0, rng.normal(size=3) * 0.5, alpha=0.0, t_max=1.0, dt=5e-3)
        roots = np.array(
            [np.sqrt(p.probs()) for p in path.points()]
        )
        npt.assert_allclose(np.linalg.norm(roots, axis=1), 1.0, atol=1e-12)
        s0, s1 = roots[0], roots[-1]
        omega = np.arccos(np.clip(s0 @ s1, -1, 1))
        frac = path.times / path.times[-1]
        slerp = (
            (np.sin((1 - frac) * omega) / np.sin(omega))[:, None] * s0[None, :]
            + (np.sin(frac * omega) / np.sin(omega))[:, None] * s1[None, :]
        )
        npt.assert_allclose(roots, slerp, atol=1e-5)

    def test_reverse_returns_to_start(self):
        rng = np.random.default_rng(6)
        fam = random_family(rng, 5, 2)
        pt0 = fam.point([0.1, 0.2])
        fwd = geodesic(pt0, np.array([0.4, -0.3]), alpha=0.3, t_max=0.8, dt=2e-3)
        end = fam.point(fwd.xis[-1])
        back = geodesic(end, -fwd.velocities[-1], alpha=0.3, t_max=0.8, dt=2e-3)
        npt.assert_allclose(back.xis[-1], pt0.xi, atol=1e-6)

    def test_coordinate_box_truncates(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        path = geodesic(fam.point([0.0]), np.array([10.0]), 1.0, t_max=20.0, dt=0.1)
        assert path.truncated
        assert np.abs(path.xis).max() <= 50.0


class TestFusedAcceleration:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["simplex", "features"])
    def test_matches_christoffel_contraction(self, kind, alpha):
        rng = np.random.default_rng(7)
        for _ in range(5):
            if kind == "simplex":
                fam = full_simplex_family(9)
            else:
                fam = random_family(rng, 40, 4)
            n = fam.n_features
            pt = fam.point(rng.normal(scale=0.5, size=n))
            v = rng.normal(size=n)
            expected = -np.einsum("kij,i,j->k", christoffel(pt, alpha), v, v)
            got = geodesic_acceleration(pt, v, alpha)
            scale = max(np.abs(expected).max(), 1e-300)
            assert np.abs(got - expected).max() <= 1e-12 * scale

    def test_singular_covariance_raises(self):
        # exp(-800) underflows, so one point carries all the mass and V = 0
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        pt = fam.point([-800.0])
        with pytest.raises(ValueError, match="singular covariance"):
            christoffel(pt, 0.0)
        with pytest.raises(ValueError, match="singular covariance"):
            geodesic_acceleration(pt, np.array([1.0]), 0.0)

    def test_one_normalisation_per_stage(self, monkeypatch):
        calls = {"_log_normalize": 0, "_weights": 0}

        def counting(name):
            original = getattr(families, name)

            def wrapped(family, xi):
                calls[name] += 1
                return original(family, xi)

            return wrapped

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.special.logsumexp called")

        for name in calls:
            monkeypatch.setattr(families, name, counting(name))
        monkeypatch.setattr(scipy.special, "logsumexp", forbidden)
        for name, mod in list(sys.modules.items()):
            if name.startswith("infogeo"):
                assert "logsumexp" not in vars(mod), name
        rng = np.random.default_rng(8)
        fam = random_family(rng, 12, 3)
        n_steps = 25
        # constructing pt0 normalises once; each RK4 step takes the weights
        # of the four points at which it evaluates the acceleration
        pt0 = fam.point(rng.normal(scale=0.3, size=3))
        path = geodesic(pt0, rng.normal(size=3), alpha=0.5, t_max=n_steps * 0.01, dt=0.01)
        assert len(path.xis) == n_steps + 1
        assert calls == {"_log_normalize": 1, "_weights": 4 * n_steps}
