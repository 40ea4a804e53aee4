"""The Dormand-Prince stages of ``geodesic`` run on raw (xi, v) arrays.

A reference integrator kept here builds a validated ``CanonicalPoint`` at
every stage and takes its acceleration from ``geodesic_acceleration``; it
runs the same tableau, step control and dense output, written out, and the
array-form stages must reproduce it to the bit, step counts and errors
included.  With the stage arithmetic written out instead (p = exp(s - log
Z) from the point, T(v, v) = c @ (p y^2)) it must agree to 1e-12, and the
stages' weights kernel must give the point's probabilities.  A fine-step
RK4 integrator is the independent accuracy oracle.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import infogeo.classical.connections as connections  # noqa: E402
import infogeo.classical.families as families  # noqa: E402
from infogeo.classical import (  # noqa: E402
    CanonicalPoint,
    ExponentialFamily,
    full_simplex_family,
    geodesic,
    geodesic_acceleration,
)

# Dormand & Prince (1980), as tabulated by Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I (Table II.5.2, and contd5)
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
A71, A73, A74, A75, A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
D1, D3, D4, D5, D6, D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)


def normalised_acceleration(pt, v, alpha):
    """(1 - alpha)/2 V^-1 T(v, v) from p = exp(log_p), written out."""
    f, p = pt.family.features, pt.probs()
    c = f - (f @ p)[:, None]
    tvv = c @ (p * (v @ c) ** 2)
    return 0.5 * (1.0 - alpha) * np.linalg.solve((c * p) @ c.T, tvv)


def rms(x):
    return math.sqrt(float((x * x).sum()) / x.size)


def reference_geodesic(pt0, v0, alpha, t_max, dt, xi_box=50.0,
                       point_acceleration=geodesic_acceleration):
    """Dormand-Prince 5(4) with a CanonicalPoint per stage.

    Returns (times, xis, velocities, truncated, (accepted, rejected,
    max_error)).
    """
    family = pt0.family
    n = family.n_features
    v0 = np.asarray(v0, dtype=float)
    tried = []

    def rate(y):
        tried.append(y)
        pt = CanonicalPoint(family, y[:n])
        return np.concatenate((y[n:], point_acceleration(pt, y[n:], alpha)))

    rtol = 1e-10
    atol = 1e-2 * rtol
    times = [0.0] + [(k + 1) * dt for k in range(int(round(t_max / dt)))]
    t_end = times[-1]
    y = np.concatenate((pt0.xi, v0))
    ys = [y]
    accepted = rejected = 0
    max_error = 0.0
    truncated = False
    if t_end > 0:
        k1 = rate(y)
        scale = atol + rtol * np.abs(y)
        d0, d1 = rms(y / scale), rms(k1 / scale)
        h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        d2 = rms((rate(y + h * k1) - k1) / scale) / h
        if max(d1, d2) <= 1e-15:
            h = min(100 * h, max(1e-6, 1e-3 * h))
        else:
            h = min(100 * h, (0.01 / max(d1, d2)) ** 0.2)
    t, i, grow, outward = 0.0, 1, True, False
    while i < len(times):
        if outward and h < 1e-12 * t:
            truncated = True
            break
        if accepted + rejected == 2000:
            raise ValueError(
                f"geodesic took 2000 steps before t = {t:.6g}; "
                f"the path may run into the boundary of the family"
            )
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        try:
            k2 = rate(y + h * (A21 * k1))
            k3 = rate(y + h * (A31 * k1 + A32 * k2))
            k4 = rate(y + h * (A41 * k1 + A42 * k2 + A43 * k3))
            k5 = rate(y + h * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4))
            k6 = rate(y + h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4
                               + A65 * k5))
            y7 = y + h * (A71 * k1 + A73 * k3 + A74 * k4 + A75 * k5 + A76 * k6)
            k7 = rate(y7)
        except ValueError:
            xi = tried[-1][:n]
            if not np.all(np.isfinite(xi)) or np.abs(xi).max() <= xi_box:
                raise
            if t + h < times[i]:
                truncated = True
                break
            h, rejected, grow = 0.2 * h, rejected + 1, False
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y7))
        err = rms(h * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7)
                  / scale)
        if not math.isfinite(err):
            raise ValueError(f"geodesic error estimate is not finite at t = {t!r}")
        if err == 0:
            factor = 10.0
        else:
            factor = min(10.0, max(0.2, 0.9 * err ** -0.2))
        if err > 1.0:
            h, rejected, grow = factor * h, rejected + 1, False
            continue
        accepted += 1
        max_error = max(max_error, err)
        t_new = t_end if last else t + h
        dy = y7 - y
        bspl = h * k1 - dy
        curl = dy - h * k7 - bspl
        top = h * (D1 * k1 + D3 * k3 + D4 * k4 + D5 * k5 + D6 * k6 + D7 * k7)
        while i < len(times) and times[i] <= t_new:
            th = np.float64((times[i] - t) / h)
            sample = y + th * (dy + (1.0 - th) * (bspl + th * (curl + (1.0 - th) * top)))
            if np.abs(sample[:n]).max() > xi_box:
                truncated = True
                break
            ys.append(sample)
            i += 1
        if truncated or np.abs(y7[:n]).max() > xi_box:
            truncated = True
            break
        outward = np.abs(y7[:n]).max() > np.abs(y[:n]).max()
        y, k1, t = y7, k7, t_new
        h *= factor if grow else min(factor, 1.0)
        grow = True
    ys = np.asarray(ys)
    return (np.asarray(times[: len(ys)]), ys[:, :n], ys[:, n:], truncated,
            (accepted, rejected, max_error))


# the samples of ``geodesic`` lie within this many rtol (times the largest
# |xi| or |v|, at least 1) of the fine RK4 path, whose own error is below
# 1e-14 on the slow starts used here
FINE_RK4_BOUND = 10.0


def rk4_geodesic(pt0, v0, alpha, t_max, dt=1e-3):
    """Fixed-step classical RK4 at dt: (xis, velocities), one row per step."""
    family, n = pt0.family, pt0.family.n_features

    def rate(y):
        pt = CanonicalPoint(family, y[:n])
        return np.concatenate((y[n:], geodesic_acceleration(pt, y[n:], alpha)))

    y = np.concatenate((pt0.xi, np.asarray(v0, dtype=float)))
    ys = [y]
    for _ in range(int(round(t_max / dt))):
        k1 = rate(y)
        k2 = rate(y + 0.5 * dt * k1)
        k3 = rate(y + 0.5 * dt * k2)
        k4 = rate(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys.append(y)
    ys = np.asarray(ys)
    return ys[:, :n], ys[:, n:]


def boxed_geodesic(xi_box, *args, **kwargs):
    """``geodesic(*args, **kwargs)`` in the box |xi_j| <= xi_box."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connections, "_XI_BOX", xi_box)
        return geodesic(*args, **kwargs)


def assert_same_path(pt0, v0, alpha, t_max, dt, xi_box):
    """Both integrators give the same samples to the bit, or the same error."""
    try:
        times, xis, vels, truncated, steps = reference_geodesic(
            pt0, v0, alpha, t_max, dt, xi_box
        )
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            boxed_geodesic(xi_box, pt0, v0, alpha, t_max, dt=dt)
        assert str(info.value) == str(exc)
        return None
    path = boxed_geodesic(xi_box, pt0, v0, alpha, t_max, dt=dt)
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.xis, xis)
    assert np.array_equal(path.velocities, vels)
    assert path.truncated == truncated
    assert (path.steps_accepted, path.steps_rejected, path.max_error) == steps
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
    # boxes a path leaves within a quarter of the step budget: over 1000
    # draws the most steps were 456 (a box of 5); a box of 50 lets a fast
    # path run into the boundary of the family, which takes up to the budget
    xi_box=st.sampled_from([1.0, 3.0, 5.0]),
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
    times, xis, vels, truncated, _ = reference_geodesic(
        pt0, v0, alpha, 1.0, 0.01, point_acceleration=normalised_acceleration
    )
    assert not truncated
    path = geodesic(pt0, v0, alpha, 1.0, dt=0.01)
    assert np.array_equal(path.times, times)
    assert np.abs(path.xis - xis).max() <= 1e-12 * max(1.0, np.abs(xis).max())
    assert np.abs(path.velocities - vels).max() <= 1e-12 * max(1.0, np.abs(vels).max())


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    kind=st.sampled_from(["simplex", "features"]),
    omega=st.integers(3, 40),
    n=st.integers(1, 4),
    alpha=alphas,
)
def test_samples_match_fine_rk4(seed, kind, omega, n, alpha):
    # the independent accuracy oracle: RK4 at dt = 1e-3, every tenth step
    rng = np.random.default_rng(seed)
    if kind == "simplex":
        fam = full_simplex_family(omega)
    else:
        fam = orthonormal_family(rng, omega, n)
    k = fam.n_features
    pt0 = fam.point(rng.normal(scale=0.3, size=k))
    v0 = rng.normal(scale=0.4, size=k) / np.sqrt(k)
    xis, vels = rk4_geodesic(pt0, v0, alpha, 0.5)
    fine = np.hstack((xis, vels))[::10]
    path = geodesic(pt0, v0, alpha, 0.5, dt=0.01)
    assert not path.truncated and 0.0 <= path.max_error <= 1.0
    got = np.hstack((path.xis, path.velocities))
    assert np.abs(got - fine).max() <= FINE_RK4_BOUND * 1e-10 * max(1.0, np.abs(fine).max())


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


@pytest.mark.parametrize("box", [10.0, 50.0])
def test_running_into_the_boundary_truncates_alike(box):
    # the coin's alpha = -1 path reaches p = (1, 0) at t = 0.2: it leaves a
    # box of 10, and in one of 50 its step collapses first
    fam = ExponentialFamily(np.array([[0.0, 1.0]]))
    path = assert_same_path(fam.point([0.0]), np.array([10.0]), -1.0, 1.0, 0.01, box)
    assert path.truncated and len(path.times) == 20


@pytest.mark.parametrize("margin", [0.0, 0.3])
@pytest.mark.parametrize("alpha", [-1.0, 0.5])
def test_stage_failures_outside_the_box_match(margin, alpha):
    # a family that degenerates beyond the box plus a margin: both
    # integrators shorten or end the same steps, to the bit
    fam = ExponentialFamily(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 0.5]]))
    weights = families._weights

    def degenerate(family, xi):
        if np.abs(xi).max() > 1.0 + margin:
            raise ValueError("singular covariance matrix; features degenerate here")
        return weights(family, xi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_weights", degenerate)
        path = assert_same_path(fam.point([0.0, 0.1]), np.array([4.0, -1.0]), alpha,
                                1.0, 0.01, 1.0)
    assert path.truncated and path.steps_rejected > 0


class TestStageErrors:
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_non_finite_stage_point(self, alpha):
        # the first rate is taken at pt0, whose xi is finite; the inf in v0
        # makes the starting-step estimate nan, so the probe point, a step
        # along the first rate, is the first non-finite xi.  Away from
        # alpha = +1 the first rate's acceleration already meets inf - inf,
        # which is not under test here.  geodesic refuses such a v0 before
        # its first stage.
        fam = full_simplex_family(4)
        pt0 = fam.point(np.zeros(3))
        v0 = np.array([0.1, np.inf, 0.2])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="xi must be finite"):
                reference_geodesic(pt0, v0, alpha, 0.1, 0.01)
        with pytest.raises(ValueError, match="^velocity must be finite$"):
            geodesic(pt0, v0, alpha, 0.1, dt=0.01)

    def test_underflowed_point_has_singular_covariance(self):
        # exp(-800) underflows, so one point carries all the mass and V = 0
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        pt0 = fam.point([-800.0])
        with pytest.raises(ValueError, match="singular covariance"):
            geodesic(pt0, np.array([1.0]), 0.0, t_max=0.1, dt=0.01)
