"""DensityMatrix.from_spectrum against the validating constructor.

A state built from a spectrum in hand must be the state the constructor
builds from the same matrix, and it must reject what the constructor
rejects, with the same error types.
"""

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from infogeo.errors import BoundaryError  # noqa: E402
from infogeo.quantum import DensityMatrix  # noqa: E402
from infogeo.quantum.states import compose_density  # noqa: E402

RTOL = 1e-13


@st.composite
def spectra(draw):
    """Weights summing to 1 (at least 1e-6 each) and a seeded unitary."""
    d = draw(st.integers(2, 6))
    w = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return w / w.sum(), q


def both(p, u):
    """from_spectrum(p, u) and the constructor on (u p) u†."""
    return (
        lambda: DensityMatrix.from_spectrum(p, u),
        lambda: DensityMatrix((u * p) @ u.conj().T),
    )


@settings(max_examples=100, deadline=None)
@given(spectra())
def test_matches_the_constructor(spectrum):
    p, u = spectrum
    fast, checked = (build() for build in both(p, u))
    scale = p.max()
    npt.assert_allclose(fast.matrix, checked.matrix, rtol=0, atol=RTOL * scale)
    npt.assert_allclose(
        fast.eigenvalues, checked.eigenvalues, rtol=0, atol=RTOL * scale
    )
    assert np.all(np.diff(fast.eigenvalues) >= 0)
    npt.assert_allclose(fast.spectral.reconstruct(), fast.matrix, rtol=0, atol=RTOL)


@settings(max_examples=50, deadline=None)
@given(spectra(), st.integers(0, 5))
def test_rejects_what_the_constructor_rejects(spectrum, k):
    p, u = spectrum
    k %= len(p)
    rest = np.delete(np.arange(len(p)), k)
    sub_floor, negative = p.copy(), p.copy()
    sub_floor[k] = 1e-15
    negative[k] = -1e-3
    for bad in (sub_floor, negative):
        bad[rest] *= (1.0 - bad[k]) / bad[rest].sum()
    skewed = u.copy()
    skewed[:, k] *= 1.1
    cases = [
        (p * 1.01, u, ValueError),
        (sub_floor, u, BoundaryError),
        (negative, u, BoundaryError),
        (p, skewed, ValueError),
    ]
    for weights, vectors, err in cases:
        for build in both(weights, vectors):
            with pytest.raises(err):
                build()
    # admitting the boundary admits no negative weight
    for build in (
        lambda: compose_density(negative, u, allow_boundary=True),
        lambda: DensityMatrix((u * negative) @ u.conj().T, allow_boundary=True),
    ):
        with pytest.raises(ValueError):
            build()
