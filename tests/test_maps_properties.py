"""The batched contraction sweep against trial-by-trial oracles, and the
metric table against Petz's theory.

Each trial is redrawn here from its own ``SeedSequence`` child, in the
sweep's draw order, as map, state and tangent objects; the state is built
from its drawn spectrum, as the sweep builds it.  It is audited alone with
``audit_metric_contraction`` and by ``loop_ratio``, which pushes it operator
by operator with plain 2-d arithmetic.  The sweep must give the same ratios
to the last bit, and the ratios of the same states decomposed by ``eigh``
to within the error of that decomposition.

Two kernels enter the table only here.  Wigner-Yanase, f(x) = ((1+√x)/2)²
(Gibilisco & Isola, J. Math. Phys. 44, 2003), is a monotone metric and a
positive control; the r = 2 power mean, f(x) = ((1+x²)/2)^(1/2), is
symmetric but not operator monotone, a negative control the audit must be
able to fail.
"""

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from infogeo.classical import FiniteDistribution, mixture_tangent  # noqa: E402
from infogeo.maps import (  # noqa: E402
    FISHER,
    METRIC_KERNELS,
    ClassicalStochasticMap,
    QuantumCPUnitalMap,
    audit_metric_contraction,
    mixture_squared_length,
    run_contraction_audit,
)
from infogeo.quantum import DensityMatrix, mixture_qtangent  # noqa: E402
from infogeo.quantum.states import project_traceless  # noqa: E402
from infogeo.spectral import (  # noqa: E402
    Kernel,
    hermitian_part,
    log_difference_kernel,
    symmetric_inverse_kernel,
)

KERNELS = {"gns": symmetric_inverse_kernel, "bkm": log_difference_kernel}

# Table entries (Petz kernel 1/(q f(p/q)), report key); both kernels have
# the limit 1/p at p = q.
WY = "wigner_yanase"
POWER_MEAN_2 = "power_mean_2"
CONTROLS = {
    WY: (
        Kernel(WY, lambda p, q: 4.0 / (np.sqrt(p) + np.sqrt(q)) ** 2),
        "WY",
    ),
    POWER_MEAN_2: (
        Kernel(POWER_MEAN_2, lambda p, q: 1.0 / np.sqrt(0.5 * (p * p + q * q))),
        "POWER_MEAN_2",
    ),
}


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def trial(metric, dim, child, decompose=False):
    """Trial ``child`` as objects; the quantum state is built from its
    spectrum, as the sweep builds it, or with ``decompose`` by ``eigh``."""
    rng = np.random.default_rng(child)
    if metric == FISHER:
        mapping = ClassicalStochasticMap(rng.dirichlet(np.ones(dim), size=dim))
        p = rng.dirichlet(np.ones(dim))
        state = FiniteDistribution((p + 1e-6) / (1 + dim * 1e-6))
        v = rng.normal(size=dim)
        return mapping, state, mixture_tangent(v - v.mean())
    q, _ = np.linalg.qr(complex_normal(rng, (3 * dim, dim)))
    mapping = QuantumCPUnitalMap([q[k * dim:(k + 1) * dim] for k in range(3)])
    w = rng.dirichlet(np.ones(dim)) + 1e-6
    w /= w.sum()
    u, _ = np.linalg.qr(complex_normal(rng, (dim, dim)))
    if decompose:
        state = DensityMatrix((u * w) @ u.conj().T)
    else:
        state = DensityMatrix.from_spectrum(w, u)
    a = complex_normal(rng, (dim, dim))
    return mapping, state, mixture_qtangent(project_traceless(hermitian_part(a)))


def eigenbasis_length(state, d, kern):
    """Tr[D K(D)] written out: sum K_ij |X_ij|^2 with X = U† D U."""
    p, u = state.spectral
    x = u.conj().T @ hermitian_part(d) @ u
    return float(np.sum(kern.matrix(p) * (x.real * x.real + x.imag * x.imag)))


def loop_ratio(mapping, state, tangent, metric):
    """One trial's ratio, pushed operator by operator."""
    if metric == FISHER:
        p, v = state.probs, tangent.vec
        q, w = p @ mapping.matrix, v @ mapping.matrix
        return float(np.sum(w * w / q)) / float(np.sum(v * v / p))
    d = tangent.matrix
    kern = KERNELS[metric]
    before = eigenbasis_length(state, d, kern)
    pushed = DensityMatrix(
        hermitian_part(sum(a @ state.matrix @ a.conj().T for a in mapping.kraus)),
        allow_boundary=True,
    )
    e = project_traceless(sum(a @ d @ a.conj().T for a in mapping.kraus))
    return eigenbasis_length(pushed, e, kern) / before


@settings(max_examples=40, deadline=None)
@given(
    metric=st.sampled_from([FISHER, "gns", "bkm"]),
    dim=st.integers(2, 8),
    trials=st.integers(1, 12),
    seed=st.integers(0, 2**63 - 1),
)
def test_sweep_matches_trial_by_trial_audits(metric, dim, trials, seed):
    rep = run_contraction_audit(metric, dim, trials, seed)
    children = np.random.SeedSequence(seed).spawn(trials)
    triples = [trial(metric, dim, c) for c in children]
    oracle = [audit_metric_contraction(*t, metric) for t in triples]
    assert rep.skipped == 0
    npt.assert_array_equal(rep.ratios, np.asarray(oracle))
    npt.assert_array_equal(rep.ratios, [loop_ratio(*t, metric) for t in triples])
    assert rep.worst_violation == max(oracle) - 1.0
    assert rep.worst_violation <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    metric=st.sampled_from(["gns", "bkm"]),
    dim=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16, 32]),
    seed=st.integers(0, 2**63 - 1),
)
def test_sweep_matches_audits_of_decomposed_states(metric, dim, seed):
    # The sweep keeps each state's drawn spectrum; eigh recovers it only to
    # a few ulps of |rho| = 1, a relative error of about eps / p on a weight
    # p.  The least weight dominates the lengths, so the ratios agree to
    # 64 eps / least weight (1.4e-12 at a least weight of 1e-2).
    rep = run_contraction_audit(metric, dim, 10, seed)
    children = np.random.SeedSequence(seed).spawn(10)
    least = np.empty(10)
    decomposed = np.empty(10)
    for i, child in enumerate(children):
        mapping, state, tangent = trial(metric, dim, child, decompose=True)
        least[i] = state.eigenvalues[0]
        decomposed[i] = audit_metric_contraction(mapping, state, tangent, metric)
    assert rep.skipped == 0
    npt.assert_array_less(
        np.abs(rep.ratios / decomposed - 1.0), 64 * np.finfo(float).eps / least
    )


def unitary(rng, dim):
    """Haar unitary: QR of a complex Gaussian with the phases of R removed."""
    q, r = np.linalg.qr(complex_normal(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def near_unitary_triples(seed, n):
    """Qubit channels {sqrt(1-eps) U, sqrt(eps) V} with eps in [0.01, 0.32],
    states with least eigenvalue in [0.01, 0.5], Gaussian tangents."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n):
        eps = 10 ** rng.uniform(-2.0, -0.5)
        chan = QuantumCPUnitalMap(
            [np.sqrt(1 - eps) * unitary(rng, 2), np.sqrt(eps) * unitary(rng, 2)]
        )
        least = 10 ** rng.uniform(-2.0, -0.3)
        u = unitary(rng, 2)
        rho = DensityMatrix((u * [1 - least, least]) @ u.conj().T)
        t = project_traceless(hermitian_part(complex_normal(rng, (2, 2))))
        triples.append((chan, rho, mixture_qtangent(t)))
    return triples


def test_audit_separates_monotone_from_non_monotone_kernels(monkeypatch):
    for name, entry in CONTROLS.items():
        monkeypatch.setitem(METRIC_KERNELS, name, entry)
    triples = near_unitary_triples(seed=1, n=50)
    worst = {
        metric: max(audit_metric_contraction(*t, metric) for t in triples)
        for metric in ("gns", "bkm", WY, POWER_MEAN_2)
    }
    assert worst[POWER_MEAN_2] > 1.0 + 1e-3
    for metric in ("gns", "bkm", WY):
        assert worst[metric] <= 1.0 + 1e-10
    for dim in (2, 8):
        rep = run_contraction_audit(WY, dim, trials=50, seed=7)
        assert rep.skipped == 0 and rep.worst_violation <= 1e-10
    # the sweep's 3-Kraus Haar channels never reach the violating region:
    # it is blind to this kernel (recorded in run_contraction_audit)
    assert run_contraction_audit(POWER_MEAN_2, 2, trials=50, seed=7).worst_violation < 0


@st.composite
def diagonal_pairs(draw):
    """A faithful probability vector and a nonzero traceless vector."""
    n = draw(st.integers(2, 8))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    v -= v.mean()
    hypothesis.assume(np.abs(v).max() > 1e-6)
    return w / w.sum(), v


@settings(max_examples=60, deadline=None)
@given(pair=diagonal_pairs())
def test_commuting_lengths_reduce_to_fisher(pair):
    # Chentsov/Petz: on a diagonal state and tangent every monotone metric
    # is the classical Fisher metric sum v^2 / p
    p, v = pair
    fisher = mixture_squared_length(FISHER, FiniteDistribution(p), v)
    rho = DensityMatrix(np.diag(p))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(METRIC_KERNELS, WY, CONTROLS[WY])
        for metric in METRIC_KERNELS:
            npt.assert_allclose(
                mixture_squared_length(metric, rho, np.diag(v)), fisher, rtol=1e-12
            )
