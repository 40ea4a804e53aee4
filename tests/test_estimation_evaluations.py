"""Classical estimation evaluates the state at a parameter point once and
reads the scores from it.

The reference functions below build Fisher information and Cramer-Rao
reports the long way, with a separate state for the check, the covariance
and each score evaluation; the library must agree with them bitwise, since
every fit at one theta returns the same point.  Features are orthonormal
centered rows and |xi_j| <= 2, as in ``test_fit_properties``, so every state
is faithful and every covariance well conditioned.
"""

import re

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import infogeo.classical.estimation as estimation  # noqa: E402
from infogeo.classical import (  # noqa: E402
    CanonicalPoint,
    ExponentialFamily,
    FiniteDistribution,
    ParametricFamily,
    covariance,
    cramer_rao_report,
    fisher_information_matrix,
    fit_mixture_coords,
    mixture_coords,
)
from infogeo.errors import BiasedEstimatorError  # noqa: E402
from infogeo.maps import ClassicalStochasticMap, audit_family_info  # noqa: E402

FD = "finite-difference"


def orthonormal_rows(rng, n, size):
    """n orthonormal rows of length ``size``, each summing to zero."""
    a = rng.normal(size=(size, n))
    a -= a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    return q.T


def parametric(family, parametrization):
    if parametrization == FD:
        return ParametricFamily.from_map(
            lambda th: CanonicalPoint(family, th).distribution(),
            family.n_features, family.omega_size,
        )
    return ParametricFamily.from_exponential(family, parametrization)


def reference_state(family, parametrization, theta):
    if parametrization == "mixture":
        return fit_mixture_coords(family, theta)
    return CanonicalPoint(family, theta)


def reference_scores(family, parametrization, theta):
    """Scores from a state of their own, as each closure once built it."""
    if parametrization == FD:
        p = CanonicalPoint(family, theta).probs()
        rows = []
        for j in range(family.n_features):
            h = estimation._FD_STEP * max(1.0, abs(theta[j]))
            e = np.zeros_like(theta)
            e[j] = h
            hi = CanonicalPoint(family, theta + e).probs()
            lo = CanonicalPoint(family, theta - e).probs()
            rows.append((hi - lo) / (2 * h) / p)
        return np.array(rows)
    pt = reference_state(family, parametrization, theta)
    centered = family.features - mixture_coords(pt)[:, None]
    if parametrization == "canonical":
        return -centered
    return np.linalg.solve(covariance(pt), centered)


def reference_information(family, parametrization, theta):
    p = reference_state(family, parametrization, theta).probs()
    s = reference_scores(family, parametrization, theta)
    s = s - (s @ p)[:, None]
    return (s * p) @ s.T


def reference_report(family, parametrization, theta, est):
    p = reference_state(family, parametrization, theta).probs()
    centered = est - (est @ p)[:, None]
    v = (centered * p) @ centered.T
    g = reference_information(family, parametrization, theta)
    gap = v - np.linalg.inv(g)
    return v, g, gap


def unbiased_estimators(family, parametrization, theta):
    """Estimators whose mean at theta is theta: the features, shifted."""
    eta = mixture_coords(reference_state(family, parametrization, theta))
    return family.features + (theta - eta)[:, None]


@settings(max_examples=40, deadline=None)
@given(
    omega=st.integers(3, 7),
    xi=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
    seed=st.integers(0, 2**63 - 1),
    parametrization=st.sampled_from(["canonical", "mixture", FD]),
)
def test_information_and_report_match_separate_evaluations(
    omega, xi, seed, parametrization
):
    rng = np.random.default_rng(seed)
    xi = np.array(xi)
    family = ExponentialFamily(
        orthonormal_rows(rng, xi.size, omega), rng.uniform(-1, 1, omega)
    )
    theta = xi if parametrization != "mixture" else mixture_coords(family.point(xi))
    fam = parametric(family, parametrization)
    g_ref = reference_information(family, parametrization, theta)
    npt.assert_array_equal(fisher_information_matrix(fam, theta), g_ref)
    npt.assert_array_equal(
        fam.scores(theta), reference_scores(family, parametrization, theta)
    )

    est = unbiased_estimators(family, parametrization, theta)
    rep = cramer_rao_report(fam, theta, est)
    v, g, gap = reference_report(family, parametrization, theta, est)
    npt.assert_array_equal(rep.covariance, v)
    npt.assert_array_equal(rep.information, g)
    npt.assert_array_equal(rep.gap, gap)


@pytest.fixture()
def fit_calls(monkeypatch):
    """Counts the fits made through ``estimation.fit_mixture_coords``."""
    calls = []
    fit = estimation.fit_mixture_coords

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(estimation, "fit_mixture_coords", counted)
    return calls


def mixture_family(n):
    family = ExponentialFamily(np.random.default_rng(5).normal(size=(n, 6)))
    eta = mixture_coords(family.point(np.linspace(-0.3, 0.3, n)))
    return family, ParametricFamily.from_exponential(family, "mixture"), eta


def test_cramer_rao_report_fits_once(fit_calls):
    family, fam, eta = mixture_family(2)
    cramer_rao_report(fam, eta, family.features)
    assert len(fit_calls) == 1


def test_fisher_information_matrix_fits_once(fit_calls):
    _, fam, eta = mixture_family(2)
    fisher_information_matrix(fam, eta)
    assert len(fit_calls) == 1


def test_classical_family_audit_fits_once(fit_calls):
    _, fam, eta = mixture_family(1)
    flip = ClassicalStochasticMap(np.full((6, 6), 1 / 12) + np.eye(6) / 2)
    assert 0.0 < audit_family_info(flip, fam, eta) < 1.0
    assert len(fit_calls) == 1


def boundary_bernoulli(calls):
    """Mean-parametrized Bernoulli that admits the boundary and counts states."""

    def dist(th):
        calls.append(th)
        return FiniteDistribution([1 - th[0], th[0]], allow_boundary=True)

    return ParametricFamily.from_map(dist, 1, 2)


@pytest.mark.parametrize(
    "theta, estimators, error, message",
    [
        ([0.3, 0.1], [[0.0, 1.0, 2.0]], ValueError, "estimators defined on 3 points"),
        ([0.3, 0.1], [[0.0, 1.0], [1.0, 0.0]], ValueError, "2 estimators for 1"),
        ([0.3, 0.1], [[0.5, 1.5]], ValueError, "theta has shape (2,)"),
        ([0.0], [[0.5, 1.5]], BiasedEstimatorError, "estimators biased"),
        ([0.0], [[0.0, 1.0]], ValueError, "min probability 0.0; Fisher"),
    ],
)
def test_cramer_rao_errors_keep_their_order(theta, estimators, error, message):
    # each row breaks every check after the one it expects to fail
    calls = []
    with pytest.raises(error, match=re.escape(message)):
        cramer_rao_report(boundary_bernoulli(calls), theta, estimators)
    # the boundary is caught before any score is taken: one state at most
    assert len(calls) <= 1
