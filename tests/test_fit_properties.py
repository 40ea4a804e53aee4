"""Moment matching over generated families: the dual-Newton solver inverts
xi -> eta on both sides, and a commuting quantum family fits like the
classical family of its spectra.

Features are orthonormalised (centered rows classically, traceless parts in
the Hilbert-Schmidt product quantum-mechanically) and |xi_j| <= 3, so every
weight stays within a few thousand of the others and the covariance is
bounded away from zero; fits run to tol 1e-12, so their coordinates are
recovered far below the 1e-8 asserted.
"""

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from infogeo.classical import (  # noqa: E402
    ExponentialFamily,
    fit_mixture_coords,
    mixture_coords,
)
from infogeo.quantum import (  # noqa: E402
    QuantumExponentialFamily,
    quantum_maxent_fit,
    quantum_mixture_coords,
)

TOL = 1e-12


def orthonormal_rows(rng, n, size):
    """n orthonormal rows of length ``size``, each summing to zero."""
    a = rng.normal(size=(size, n))
    a -= a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    return q.T


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def hermitian_basis(rng, n, d):
    """n traceless Hermitian matrices, orthonormal in Tr[A B]."""
    mats = []
    for _ in range(n):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = 0.5 * (a + a.conj().T)
        a -= np.trace(a).real / d * np.eye(d)
        for b in mats:
            a -= np.trace(b @ a).real * b
        mats.append(a / np.sqrt(np.trace(a @ a).real))
    return mats


xis = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=2)
seeds = st.integers(0, 2**63 - 1)


@settings(max_examples=30, deadline=None)
@given(omega=st.integers(3, 6), xi=xis, seed=seeds)
def test_classical_fit_inverts_mixture_coords(omega, xi, seed):
    rng = np.random.default_rng(seed)
    xi = np.array(xi)
    fam = ExponentialFamily(
        orthonormal_rows(rng, xi.size, omega), rng.uniform(-1, 1, omega)
    )
    eta = mixture_coords(fam.point(xi))
    npt.assert_allclose(fit_mixture_coords(fam, eta, tol=TOL).xi, xi, rtol=0, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 4), xi=xis, seed=seeds)
def test_quantum_fit_inverts_mixture_coords(dim, xi, seed):
    rng = np.random.default_rng(seed)
    xi = np.array(xi)
    h0 = hermitian_basis(rng, 1, dim)[0]
    fam = QuantumExponentialFamily(h0, hermitian_basis(rng, xi.size, dim))
    eta = quantum_mixture_coords(fam, xi)
    npt.assert_allclose(quantum_maxent_fit(fam, eta, tol=TOL).xi, xi, rtol=0, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(omega=st.integers(3, 6), xi=xis, seed=seeds)
def test_commuting_quantum_family_fits_like_classical(omega, xi, seed):
    rng = np.random.default_rng(seed)
    xi = np.array(xi)
    f = orthonormal_rows(rng, xi.size, omega)
    b = rng.uniform(-1, 1, omega)
    u = random_unitary(rng, omega)
    cfam = ExponentialFamily(f, b)
    qfam = QuantumExponentialFamily(
        (u * -b) @ u.conj().T, [(u * row) @ u.conj().T for row in f]
    )
    eta = mixture_coords(cfam.point(xi))
    cfit = fit_mixture_coords(cfam, eta, tol=TOL)
    qfit = quantum_maxent_fit(qfam, eta, tol=TOL)
    npt.assert_allclose(qfit.xi, cfit.xi, rtol=0, atol=1e-9)
