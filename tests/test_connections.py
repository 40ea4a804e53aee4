import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special

import infogeo.classical.connections as connections
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

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from test_geodesic_stages import (  # noqa: E402
    FINE_RK4_BOUND,
    boxed_geodesic,
    make_family,
    orthonormal_family,
    rk4_geodesic,
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

    @pytest.mark.parametrize(
        "v0, t_max, dt, message",
        [
            ([0.5], 1.0, 0.0, "dt must be positive"),
            ([0.5], 1.0, -0.1, "dt must be positive"),
            ([0.5], -1.0, 0.1, "t_max must be nonnegative"),
            ([0.5, 0.5], 1.0, 0.1, "velocity has shape (2,), expected (1,)"),
            ([0.5], 1.0, np.nan, "dt must be positive"),
            ([0.5], 1.0, np.inf, "dt must be finite"),
            ([0.5], np.nan, 0.1, "t_max must be nonnegative"),
            ([0.5], np.inf, 0.1, "t_max must be finite"),
            ([np.inf], 1.0, 0.1, "velocity must be finite"),
            ([np.nan], 1.0, 0.1, "velocity must be finite"),
        ],
    )
    def test_bad_arguments_raise(self, v0, t_max, dt, message):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(ValueError) as info:
            geodesic(fam.point([0.1]), v0, 0.0, t_max, dt=dt)
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha", [np.nan, -np.inf])
    def test_bad_alpha_raises(self, alpha):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(ValueError) as info:
            geodesic(fam.point([0.1]), [0.5], alpha, 1.0, dt=0.1)
        assert str(info.value) == "alpha must be finite"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "v0, alpha, t_max, dt, message",
        [
            # the sample count is refused before a grid of that size exists
            ([0.5], 0.0, 2.0, 1e-6,
             "t_max / dt = 2e+06: more than 1000000 samples"),
            ([0.5], 0.0, 1e300, 1e-10,
             "t_max / dt = inf: more than 1000000 samples"),
            # the starting step's scaled rate norm overflows
            ([1e300], 1.0, 1.0, 0.1,
             "velocity is too large: the starting rate's scaled rms norm is inf"),
            ([1e300], 0.5, 1.0, 0.1,
             "velocity is too large: the starting rate's scaled rms norm is nan"),
            ([0.5], 0.0, 1.0, "0.1", "dt must be a real number, got '0.1'"),
            ([0.5], True, 1.0, 0.1, "alpha must be a real number, got True"),
        ],
    )
    def test_huge_or_mistyped_arguments_raise(self, v0, alpha, t_max, dt, message):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(ValueError) as info:
            geodesic(fam.point([0.1]), v0, alpha, t_max, dt=dt)
        assert str(info.value) == message


class TestIntegrate:
    """The Dormand-Prince core on rates with closed-form solutions."""

    def test_rotation_follows_the_circle(self):
        times = np.linspace(0.0, 2 * np.pi, 41)
        ys, truncated, accepted, _, max_error = connections._integrate(
            lambda y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), times, 2, 10.0
        )
        assert not truncated and len(ys) == len(times)
        assert accepted > 0 and max_error <= 1.0
        circle = np.column_stack((np.cos(times), -np.sin(times)))
        assert np.abs(ys - circle).max() <= 1e-8

    def test_growth_is_truncated_where_it_leaves_the_box(self):
        times = np.linspace(0.0, 5.0, 51)
        ys, truncated, *_ = connections._integrate(
            lambda y: y, np.array([1.0]), times, 1, 20.0
        )
        # e^t crosses 20 at t = log 20 = 2.996
        inside = times[times < np.log(20.0)]
        assert truncated and len(ys) == len(inside)
        assert ys[-1, 0] <= 20.0
        npt.assert_allclose(ys[:, 0], np.exp(inside), rtol=1e-8)

    def test_box_reads_the_leading_components_only(self):
        def rate(y):
            return np.array([1.0, y[1]])

        times = np.linspace(0.0, 2.0, 21)
        y0 = np.array([0.0, 1e3])
        ys, truncated, *_ = connections._integrate(rate, y0, times, 1, 10.0)
        assert not truncated and len(ys) == len(times)
        npt.assert_allclose(ys[:, 1], 1e3 * np.exp(times), rtol=1e-8)
        # the same trailing component truncates at once when the box reads it
        ys, truncated, *_ = connections._integrate(rate, y0, times, 2, 10.0)
        assert truncated and len(ys) == 1

    def test_failing_stage_inside_the_box_raises(self):
        def rate(y):
            if y[0] > 0.5:
                raise ValueError("no rate past 0.5")
            return np.ones(1)

        with pytest.raises(ValueError, match="^no rate past 0.5$"):
            connections._integrate(rate, np.zeros(1), np.linspace(0.0, 1.0, 11), 1, 10.0)


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
        n_samples = 25
        # constructing pt0 normalises once; the path takes the weights at
        # pt0, at the starting-step probe and at six stages per attempted
        # step (the seventh is the next step's first)
        pt0 = fam.point(rng.normal(scale=0.3, size=3))
        v0 = rng.normal(size=3)
        path = geodesic(pt0, v0, alpha=0.5, t_max=n_samples * 0.01, dt=0.01)
        assert len(path.xis) == n_samples + 1
        assert path.steps_accepted > 0
        stages = 2 + 6 * (path.steps_accepted + path.steps_rejected)
        assert calls == {"_log_normalize": 1, "_weights": stages}
        # the alpha = +1 rate is (v, 0): no weights at all
        path = geodesic(pt0, v0, alpha=1.0, t_max=n_samples * 0.01, dt=0.01)
        assert path.steps_accepted > 0
        assert calls == {"_log_normalize": 1, "_weights": stages}


def slow_start(seed, kind, omega, n):
    """A family and a slow start whose path keeps V well conditioned."""
    rng = np.random.default_rng(seed)
    fam = full_simplex_family(omega) if kind == "simplex" else orthonormal_family(rng, omega, n)
    k = fam.n_features
    return fam.point(rng.normal(scale=0.3, size=k)), rng.normal(scale=0.4, size=k) / np.sqrt(k)


def fast_start(seed, kind, omega, n, speed):
    """A random family and a start near 0 moving at about ``speed``."""
    rng = np.random.default_rng(seed)
    fam = make_family(kind, omega, n, rng)
    k = fam.n_features
    return fam.point(rng.normal(scale=0.1, size=k)), speed * rng.normal(size=k) / np.sqrt(k)


seeds = st.integers(0, 2**63 - 1)
kinds = st.sampled_from(["simplex", "features"])
curved = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 0.9)


class TestAdaptiveGeodesic:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, omega=st.integers(2, 12), n=st.integers(1, 4),
           t_max=st.floats(0.0, 3.0), dt=st.floats(0.003, 0.5), speed=st.floats(0.0, 5.0))
    def test_plus_one_samples_the_line(self, seed, omega, n, t_max, dt, speed):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, omega, min(n, omega - 1))
        k = fam.n_features
        xi0 = rng.normal(scale=0.3, size=k)
        v0 = speed * rng.normal(size=k) / np.sqrt(k)
        path = geodesic(fam.point(xi0), v0, 1.0, t_max, dt=dt)
        line = xi0 + path.times[:, None] * v0
        assert np.abs(path.xis - line).max() <= 1e-12
        assert np.array_equal(path.velocities, np.broadcast_to(v0, path.velocities.shape))

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, kind=kinds, omega=st.integers(3, 12), n=st.integers(1, 3),
           alpha=curved)
    @example(seed=417225495885, kind="features", omega=10, n=1, alpha=-2.0)
    def test_error_shrinks_with_rtol(self, seed, kind, omega, n, alpha):
        pt0, v0 = slow_start(seed, kind, omega, n)
        xis, vels = rk4_geodesic(pt0, v0, alpha, 0.5, 1e-3)
        fine = np.hstack((xis, vels))[::10]
        scale = max(1.0, np.abs(fine).max())
        errors = []
        for rtol in (1e-8, 1e-10, 1e-12):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(connections, "_RTOL", rtol)
                path = geodesic(pt0, v0, alpha, 0.5, dt=0.01)
            assert not path.truncated
            errors.append(np.abs(np.hstack((path.xis, path.velocities)) - fine).max())
            assert errors[-1] <= FINE_RK4_BOUND * rtol * scale
        # proportionality to rtol is only asymptotic: where the growth limit
        # of the step, not the tolerance, sets the steps, a path can come out
        # as accurate at 1e-8 as at 1e-10.  Four decades always tell, unless
        # errors[0] is within the noise of the comparison.  Over 301 drawn
        # examples the fine path's own error (against RK4 at dt = 5e-4) was
        # at most 1.3e-14 * scale, and the adaptive path's rounding (the same
        # path on a permuted sample space, or started one ulp away) at most
        # 2.2e-14 * scale; their sum at most 2.3e-14, half the floor.  The
        # pinned example is not rounding: its paths take 3 or 4 steps, set by
        # the growth limit, and the dense output between them is 1e-14 off
        # at every rtol, where errors[0] and errors[2] differ by 6e-16, below
        # the fine path's own 1.7e-15
        assert errors[2] < errors[0] or errors[0] <= 5e-14 * scale

    @settings(max_examples=40, deadline=None)
    @given(t_max=st.floats(0.0, 50.0), dt=st.floats(1e-3, 10.0))
    def test_times_are_the_sample_grid(self, t_max, dt):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        path = geodesic(fam.point([0.1]), np.array([0.5]), 1.0, t_max, dt=dt)
        want = [0.0] + [(k + 1) * dt for k in range(int(round(t_max / dt)))]
        assert np.array_equal(path.times, np.asarray(want))

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, kind=kinds, omega=st.integers(3, 12), n=st.integers(1, 3),
           alpha=curved | st.just(1.0), frac=st.floats(0.0, 0.49))
    def test_zero_t_max_is_one_sample(self, seed, kind, omega, n, alpha, frac):
        pt0, v0 = fast_start(seed, kind, omega, n, 5.0)
        path = geodesic(pt0, v0, alpha, frac * 0.01, dt=0.01)
        assert np.array_equal(path.times, [0.0])
        assert np.array_equal(path.xis, pt0.xi[None])
        assert np.array_equal(path.velocities, v0[None])
        assert not path.truncated
        assert (path.steps_accepted, path.steps_rejected, path.max_error) == (0, 0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, kind=kinds, omega=st.integers(3, 12), n=st.integers(1, 3),
           alpha=curved | st.just(1.0), speed=st.floats(1.0, 10.0),
           box=st.floats(0.5, 2.0))
    def test_leaving_the_box_truncates(self, seed, kind, omega, n, alpha, speed, box):
        # the box decides only where the path stops, so a path in a larger
        # box starts with the same samples, to the bit
        pt0, v0 = fast_start(seed, kind, omega, n, speed)
        path = boxed_geodesic(box, pt0, v0, alpha, 1.0, dt=0.01)
        m = len(path.times)
        assert np.abs(path.xis).max() <= box
        assert path.truncated == (m < 101)
        wide = boxed_geodesic(4 * box, pt0, v0, alpha, 1.0, dt=0.01)
        assert np.array_equal(wide.xis[:m], path.xis)
        assert np.array_equal(wide.velocities[:m], path.velocities)
        if np.abs(wide.xis).max() > box:
            assert path.truncated

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, kind=kinds, omega=st.integers(3, 12), n=st.integers(1, 3),
           alpha=curved, speed=st.floats(1.0, 10.0), box=st.floats(0.5, 2.0),
           margin=st.sampled_from([0.0, 0.01, 0.3]) | st.floats(0.0, 1.0))
    def test_failing_stage_outside_the_box_truncates(
        self, seed, kind, omega, n, alpha, speed, box, margin
    ):
        # a family that degenerates just outside the box: a stage there
        # raises, and the path must still end as a truncation
        pt0, v0 = fast_start(seed, kind, omega, n, speed)
        plain = boxed_geodesic(box, pt0, v0, alpha, 1.0, dt=0.01)
        weights = families._weights

        def degenerate(family, xi):
            if np.abs(xi).max() > box + margin:
                raise ValueError("singular covariance matrix; features degenerate here")
            return weights(family, xi)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "_weights", degenerate)
            path = boxed_geodesic(box, pt0, v0, alpha, 1.0, dt=0.01)
        assert path.truncated == plain.truncated
        assert len(path.times) == len(plain.times)
        assert np.abs(path.xis).max() <= box
        assert np.abs(path.xis - plain.xis).max() <= 1e-8

    def test_stage_failure_at_the_box_edge(self):
        # the family ends at the box, so no step can end outside it; the
        # stage that fails there ends the path at the last sample inside
        fam = ExponentialFamily(np.array([[0.0, 1.0, 3.0]]))
        pt0, v0 = fam.point([0.0]), np.array([4.0])
        plain = boxed_geodesic(1.0, pt0, v0, 0.5, 1.0, dt=0.01)
        weights = families._weights

        def degenerate(family, xi):
            if np.abs(xi).max() > 1.0:
                raise ValueError("singular covariance matrix; features degenerate here")
            return weights(family, xi)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "_weights", degenerate)
            path = boxed_geodesic(1.0, pt0, v0, 0.5, 1.0, dt=0.01)
        assert plain.truncated and path.truncated
        assert path.steps_rejected > 0
        assert len(path.times) == len(plain.times)
        npt.assert_allclose(path.xis, plain.xis, rtol=0, atol=1e-9)

    def test_a_failing_stage_inside_the_box_raises(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 3.0]]))

        def degenerate(family, xi):
            raise ValueError("singular covariance matrix; features degenerate here")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "_weights", degenerate)
            with pytest.raises(ValueError, match="degenerate here"):
                geodesic(fam.point([0.0]), np.array([4.0]), 0.5, 1.0, dt=0.01)

    def test_step_budget_is_an_error(self, monkeypatch):
        monkeypatch.setattr(connections, "_MAX_STEPS", 3)
        fam = full_simplex_family(4)
        with pytest.raises(ValueError, match=r"^geodesic took 3 steps before t = "):
            geodesic(fam.point(np.zeros(3)), np.array([1.0, -0.5, 0.2]), 0.0, 1.0, dt=0.01)

    def test_running_into_the_boundary_truncates(self):
        # the alpha = -1 path of a coin reaches p = (1, 0) at t = 0.2, where
        # xi diverges like -log(0.2 - t) and each step gains about 0.025 in
        # xi: a box of 10 is left after about 370 steps, while in one of 50
        # the step falls below 1e-12 t near xi = 23, after about 950 steps;
        # reaching xi = 50 would take about 1950 of the 2000 allowed
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        for box, most in ((10.0, 500), (50.0, 1200)):
            path = boxed_geodesic(box, fam.point([0.0]), np.array([10.0]), -1.0, 1.0, dt=0.01)
            assert path.truncated and len(path.times) == 20
            assert path.steps_accepted + path.steps_rejected < most
            eta = 0.5 - 2.5 * path.times  # affine in t: the -1 geodesic
            npt.assert_allclose(path.xis[:, 0], np.log((1 - eta) / eta), rtol=0, atol=1e-9)

    def test_non_finite_error_estimate_is_an_error(self, monkeypatch):
        # the seventh rate of the first step (after the rate at pt0 and the
        # starting-step probe) is nan while its xi is finite
        acceleration, calls = connections._acceleration, []

        def flaky(*args):
            calls.append(None)
            return acceleration(*args) * (np.nan if len(calls) == 8 else 1.0)

        monkeypatch.setattr(connections, "_acceleration", flaky)
        fam = full_simplex_family(4)
        with pytest.raises(ValueError, match=r"^geodesic error estimate is not finite at t = 0\.0$"):
            geodesic(fam.point(np.zeros(3)), np.array([1.0, -0.5, 0.2]), 0.0, 1.0, dt=0.01)

    def test_non_finite_stage_outside_the_box_raises(self, monkeypatch):
        # an infinite acceleration at the first step's second stage makes
        # the third stage's v infinite, so the fourth stage's xi is +inf:
        # outside the box, but an error, not a truncation
        acceleration, calls = connections._acceleration, []

        def blowing_up(*args):
            calls.append(None)
            a = acceleration(*args)
            return np.full_like(a, np.inf) if len(calls) == 3 else a

        monkeypatch.setattr(connections, "_acceleration", blowing_up)
        fam = full_simplex_family(4)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="xi must be finite"):
                geodesic(fam.point(np.zeros(3)), np.array([1.0, -0.5, 0.2]), 0.0, 1.0, dt=0.01)
