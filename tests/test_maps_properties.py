"""The batched contraction sweep against trial-by-trial oracles.

Each trial is redrawn here from its own ``SeedSequence`` child, in the
sweep's draw order, as map, state and tangent objects.  It is audited alone
with ``audit_metric_contraction`` and by ``loop_ratio``, which pushes it
operator by operator with plain 2-d arithmetic.  The sweep must give the
same ratios to the last bit.
"""

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from infogeo.classical import FiniteDistribution, mixture_tangent  # noqa: E402
from infogeo.maps import (  # noqa: E402
    BKM,
    FISHER,
    GNS,
    ClassicalStochasticMap,
    QuantumCPUnitalMap,
    audit_metric_contraction,
    run_contraction_audit,
)
from infogeo.quantum import DensityMatrix, mixture_qtangent  # noqa: E402
from infogeo.quantum.states import project_traceless  # noqa: E402
from infogeo.spectral import (  # noqa: E402
    hermitian_part,
    kernel_apply,
    log_difference_kernel,
    symmetric_inverse_kernel,
)

KERNELS = {GNS: symmetric_inverse_kernel, BKM: log_difference_kernel}


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def trial(metric, dim, child):
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
    state = DensityMatrix((u * w) @ u.conj().T)
    a = complex_normal(rng, (dim, dim))
    return mapping, state, mixture_qtangent(project_traceless(hermitian_part(a)))


def loop_ratio(mapping, state, tangent, metric):
    """One trial's ratio, pushed operator by operator."""
    if metric == FISHER:
        p, v = state.probs, tangent.vec
        q, w = p @ mapping.matrix, v @ mapping.matrix
        return float(np.sum(w * w / q)) / float(np.sum(v * v / p))
    d = tangent.matrix
    kern = KERNELS[metric]
    before = float(np.trace(d @ kernel_apply(state.spectral, d, kern)).real)
    pushed = DensityMatrix(
        hermitian_part(sum(a @ state.matrix @ a.conj().T for a in mapping.kraus)),
        allow_boundary=True,
    )
    e = project_traceless(sum(a @ d @ a.conj().T for a in mapping.kraus))
    return float(np.trace(e @ kernel_apply(pushed.spectral, e, kern)).real) / before


@settings(max_examples=40, deadline=None)
@given(
    metric=st.sampled_from([FISHER, GNS, BKM]),
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
