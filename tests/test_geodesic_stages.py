"""The RK4 stages of ``geodesic`` run on raw (xi, v) arrays.

A reference integrator kept here builds a validated ``CanonicalPoint`` at
every stage and takes its acceleration from ``geodesic_acceleration``; the
array-form stages must reproduce it to the bit, errors included.  With the
stage arithmetic written out instead (p = exp(s - log Z) from the point,
T(v, v) = c @ (p y^2)) it must agree to 1e-12, and the stages' weights
kernel must give the point's probabilities.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import infogeo.classical.families as families  # noqa: E402
from infogeo.classical import (  # noqa: E402
    CanonicalPoint,
    ExponentialFamily,
    full_simplex_family,
    geodesic,
    geodesic_acceleration,
)


def normalised_acceleration(pt, v, alpha):
    """(1 - alpha)/2 V^-1 T(v, v) from p = exp(log_p), written out."""
    f, p = pt.family.features, pt.probs()
    c = f - (f @ p)[:, None]
    tvv = c @ (p * (v @ c) ** 2)
    return 0.5 * (1.0 - alpha) * np.linalg.solve((c * p) @ c.T, tvv)


def reference_geodesic(pt0, v0, alpha, t_max, dt, xi_box=50.0,
                       point_acceleration=geodesic_acceleration):
    """RK4 with a CanonicalPoint per stage: (times, xis, velocities, truncated)."""
    family = pt0.family
    v0 = np.asarray(v0, dtype=float)

    def acceleration(xi, v):
        return point_acceleration(CanonicalPoint(family, xi), v, alpha)

    times, xis, vels = [0.0], [pt0.xi.copy()], [v0.copy()]
    xi, v = pt0.xi.copy(), v0.copy()
    truncated = False
    for k in range(int(round(t_max / dt))):
        k1x, k1v = v, acceleration(xi, v)
        k2x = v + 0.5 * dt * k1v
        k2v = acceleration(xi + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = acceleration(xi + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = acceleration(xi + dt * k3x, k4x)
        xi = xi + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if np.abs(xi).max() > xi_box:
            truncated = True
            break
        times.append((k + 1) * dt)
        xis.append(xi.copy())
        vels.append(v.copy())
    return np.asarray(times), np.asarray(xis), np.asarray(vels), truncated


def assert_same_path(pt0, v0, alpha, t_max, dt, xi_box):
    """Both integrators give the same samples to the bit, or the same error."""
    try:
        times, xis, vels, truncated = reference_geodesic(
            pt0, v0, alpha, t_max, dt, xi_box
        )
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            geodesic(pt0, v0, alpha, t_max, dt=dt, xi_box=xi_box)
        assert str(info.value) == str(exc)
        return None
    path = geodesic(pt0, v0, alpha, t_max, dt=dt, xi_box=xi_box)
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.xis, xis)
    assert np.array_equal(path.velocities, vels)
    assert path.truncated == truncated
    return path


def make_family(kind, omega, n, rng):
    if kind == "simplex":
        return full_simplex_family(omega)
    return ExponentialFamily(rng.normal(size=(min(n, omega - 1), omega)))


def orthonormal_family(rng, omega, n, base=None):
    """min(n, omega - 1) orthonormal features, each summing to zero."""
    a = rng.normal(size=(omega, min(n, omega - 1)))
    return ExponentialFamily(np.linalg.qr(a - a.mean(axis=0))[0].T, base)


alphas = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    kind=st.sampled_from(["simplex", "features"]),
    omega=st.integers(3, 40),
    n=st.integers(1, 4),
    alpha=alphas,
    speed=st.floats(0.1, 20.0),
    xi_box=st.sampled_from([1.0, 3.0, 50.0]),
)
@example(seed=1, kind="simplex", omega=3, n=1, alpha=0.5, speed=20.0, xi_box=1.0)
@example(seed=2, kind="features", omega=12, n=3, alpha=-1.0, speed=20.0, xi_box=1.0)
def test_array_stages_match_point_stages(seed, kind, omega, n, alpha, speed, xi_box):
    rng = np.random.default_rng(seed)
    fam = make_family(kind, omega, n, rng)
    k = fam.n_features
    pt0 = fam.point(rng.normal(scale=0.3, size=k))
    v0 = speed * rng.normal(size=k) / np.sqrt(k)
    assert_same_path(pt0, v0, alpha, t_max=0.2, dt=0.01, xi_box=xi_box)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    kind=st.sampled_from(["simplex", "features"]),
    omega=st.integers(3, 40),
    n=st.integers(1, 4),
    alpha=alphas,
)
def test_stages_match_normalised_density_arithmetic(seed, kind, omega, n, alpha):
    # orthonormal centered features and slow starts keep the path where V is
    # well conditioned, so rounding differences in p are not amplified
    rng = np.random.default_rng(seed)
    if kind == "simplex":
        fam = full_simplex_family(omega)
    else:
        fam = orthonormal_family(rng, omega, n)
    k = fam.n_features
    pt0 = fam.point(rng.normal(scale=0.3, size=k))
    v0 = rng.normal(scale=0.4, size=k) / np.sqrt(k)
    times, xis, vels, truncated = reference_geodesic(
        pt0, v0, alpha, 1.0, 0.01, point_acceleration=normalised_acceleration
    )
    assert not truncated
    path = geodesic(pt0, v0, alpha, 1.0, dt=0.01)
    assert np.array_equal(path.times, times)
    assert np.abs(path.xis - xis).max() <= 1e-12 * max(1.0, np.abs(xis).max())
    assert np.abs(path.velocities - vels).max() <= 1e-12 * max(1.0, np.abs(vels).max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    omega=st.integers(2, 40),
    n=st.integers(1, 3),
    base=st.booleans(),
    scale=st.floats(0.0, 3.0),
)
def test_weights_are_the_point_probabilities(seed, omega, n, base, scale):
    # orthonormal features (entries in [-1, 1]), a base in [-1, 1] and
    # |xi_j| <= 3 keep s within 20 of its maximum, so exp(s - max s) and
    # exp(s - log Z) agree to a few ulps each
    rng = np.random.default_rng(seed)
    fam = orthonormal_family(rng, omega, n, rng.uniform(-1, 1, omega) if base else None)
    xi = rng.uniform(-scale, scale, fam.n_features)
    s, p = families._weights(fam, xi)
    want = fam.point(xi).probs()
    assert np.array_equal(s, fam.base_log_density - xi @ fam.features)
    assert np.all(np.abs(p - want) <= 1e-14 * want)
    assert abs(p.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("kind", ["simplex", "features"])
def test_leaving_the_box_truncates_alike(kind, alpha):
    rng = np.random.default_rng(17)
    fam = make_family(kind, 9, 3, rng)
    k = fam.n_features
    v0 = np.full(k, 30.0)
    path = assert_same_path(fam.point(np.zeros(k)), v0, alpha, 1.0, 0.01, 2.0)
    assert path.truncated
    assert np.abs(path.xis).max() <= 2.0


class TestStageErrors:
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_non_finite_stage_point(self, alpha):
        # the first stage sits at pt0; the second, half a step along v0, is
        # the first non-finite point.  Away from alpha = +1 the first stage's
        # acceleration already meets inf - inf, which is not under test here.
        fam = full_simplex_family(4)
        pt0 = fam.point(np.zeros(3))
        v0 = np.array([0.1, np.inf, 0.2])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="xi must be finite"):
                reference_geodesic(pt0, v0, alpha, 0.1, 0.01)
            with pytest.raises(ValueError, match="xi must be finite"):
                geodesic(pt0, v0, alpha, 0.1, dt=0.01)

    def test_underflowed_point_has_singular_covariance(self):
        # exp(-800) underflows, so one point carries all the mass and V = 0
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        pt0 = fam.point([-800.0])
        with pytest.raises(ValueError, match="singular covariance"):
            geodesic(pt0, np.array([1.0]), 0.0, t_max=0.1, dt=0.01)
