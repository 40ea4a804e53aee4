import numpy as np
import numpy.testing as npt
import pytest

from infogeo.classical import (
    FiniteDistribution,
    ParametricFamily,
    mixture_tangent,
    uniform,
)
import infogeo.maps as maps
import infogeo.quantum.states as qstates
from infogeo.errors import BoundaryError
from infogeo.maps import (
    FISHER,
    METRIC_KERNELS,
    ClassicalStochasticMap,
    QuantumCPUnitalMap,
    audit_family_info,
    audit_metric_contraction,
    mixture_squared_length,
    push_state,
    random_cp_unital_map,
    random_stochastic_map,
    run_contraction_audit,
)
from infogeo.quantum import DensityMatrix, mixture_qtangent
from infogeo.quantum.states import project_traceless
from infogeo.spectral import SpectralDecomposition, hermitian_part

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def depolarizing(q):
    return QuantumCPUnitalMap(
        [np.sqrt(1 - q) * np.eye(2)]
        + [np.sqrt(q / 3) * PAULI[k] for k in ("x", "y", "z")]
    )


def random_density(rng, dim):
    w = rng.dirichlet(np.ones(dim)) + 1e-3
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return DensityMatrix((q * w) @ q.conj().T)


def random_traceless(rng, dim):
    a = hermitian_part(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return project_traceless(a)


class TestMapTypes:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassicalStochasticMap([[0.5, 0.4], [0.3, 0.7]])

    def test_kraus_must_be_unital(self):
        with pytest.raises(ValueError, match="unital"):
            QuantumCPUnitalMap([np.eye(2) * 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_name_the_map(self, bad):
        # nan > tol is false: these used to pass every later check
        with pytest.raises(ValueError, match="^stochastic map has non-finite entries"):
            ClassicalStochasticMap([[bad, 1.0], [0.5, 0.5]])
        kraus = np.eye(2, dtype=complex)
        kraus[0, 1] = bad
        # checked before A†A, which an infinite entry would turn into nan
        with pytest.raises(ValueError, match="^Kraus operators have non-finite entries"):
            QuantumCPUnitalMap([kraus])

    def test_stacked_checks_name_the_stack_index(self):
        stack = np.tile(np.eye(2), (3, 1, 1))
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="^stack index 1: stochastic map has non-finite"):
            maps._check_stochastic(stack)
        stack[1, 0, 1] = 0.0
        stack[2, 0] = [1.1, -0.1]
        with pytest.raises(ValueError, match=r"^stack index 2: negative transition rate -0.1"):
            maps._check_stochastic(stack)
        kraus = np.tile(np.eye(2, dtype=complex), (3, 1, 1, 1))
        kraus[2, 0, 1, 1] = np.inf
        with pytest.raises(ValueError, match="^stack index 2: Kraus operators have non-finite"):
            maps._check_unital(kraus)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^negative transition rate -0.1"):
            ClassicalStochasticMap([[1.1, -0.1], [0.5, 0.5]])

    def test_single_column_map(self):
        m = ClassicalStochasticMap(np.ones((3, 1)))
        out = push_state(m, uniform(3))
        npt.assert_allclose(out.probs, [1.0])


class TestPush:
    def test_identity_map(self):
        rho = uniform(3)
        m = ClassicalStochasticMap(np.eye(3))
        npt.assert_allclose(push_state(m, rho).probs, rho.probs)

    def test_total_forgetting(self):
        m = ClassicalStochasticMap(np.tile([0.0, 1.0, 0.0], (3, 1)))
        out = push_state(m, FiniteDistribution([0.2, 0.3, 0.5]))
        npt.assert_allclose(out.probs, [0, 1, 0], atol=1e-15)

    def test_probability_conserved(self):
        rng = np.random.default_rng(0)
        m = random_stochastic_map(4, 3, seed=1)
        p = rng.dirichlet(np.ones(4))
        out = push_state(m, FiniteDistribution(p, allow_boundary=True))
        npt.assert_allclose(out.probs.sum(), 1.0, atol=1e-12)

    def test_depolarizing_fixed_point(self):
        # q = 3/4 sends every qubit state to I/2 (Pauli twirl algebra)
        rng = np.random.default_rng(1)
        chan = depolarizing(0.75)
        for _ in range(5):
            rho = random_density(rng, 2)
            out = push_state(chan, rho)
            npt.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_quantum_trace_preserved(self):
        rng = np.random.default_rng(2)
        chan = random_cp_unital_map(3, seed=3)
        rho = random_density(rng, 3)
        out = push_state(chan, rho)
        npt.assert_allclose(np.trace(out.matrix).real, 1.0, atol=1e-12)


class TestContraction:
    def test_unitary_conjugation_preserves_all(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        chan = QuantumCPUnitalMap([q])
        rho = random_density(rng, 3)
        t = mixture_qtangent(random_traceless(rng, 3))
        for metric in ("gns", "bkm"):
            ratio = audit_metric_contraction(chan, rho, t, metric)
            npt.assert_allclose(ratio, 1.0, atol=1e-10)

    def test_permutation_preserves_fisher(self):
        rng = np.random.default_rng(6)
        perm = np.eye(4)[rng.permutation(4)]
        m = ClassicalStochasticMap(perm)
        rho = FiniteDistribution(rng.dirichlet(np.ones(4)) * 0.96 + 0.01)
        v = rng.normal(size=4)
        t = mixture_tangent(v - v.mean())
        npt.assert_allclose(
            audit_metric_contraction(m, rho, t, FISHER), 1.0, atol=1e-10
        )

    def test_full_depolarization_kills_tangent(self):
        chan = depolarizing(0.75)
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        t = mixture_qtangent(random_traceless(rng, 2))
        for metric in ("gns", "bkm"):
            assert audit_metric_contraction(chan, rho, t, metric) < 1e-12

    def test_zero_tangent_rejected(self):
        m = ClassicalStochasticMap(np.eye(2))
        with pytest.raises(ValueError, match="zero input tangent"):
            audit_metric_contraction(m, uniform(2), mixture_tangent([0.0, 0.0]), FISHER)

    def test_commuting_quantum_matches_classical(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        v = rng.normal(size=3)
        v -= v.mean()
        # diagonal (classical-embedding) channel: permutation conjugation
        perm = np.eye(3)[[2, 0, 1]]
        chan = QuantumCPUnitalMap([perm.astype(complex)])
        cmap = ClassicalStochasticMap(perm.T)  # rows: i -> perm(i)
        rho_q = DensityMatrix(np.diag(p))
        rho_c = FiniteDistribution(p)
        rc = audit_metric_contraction(cmap, rho_c, mixture_tangent(v), FISHER)
        t = mixture_qtangent(np.diag(v))
        for metric in METRIC_KERNELS:
            rq = audit_metric_contraction(chan, rho_q, t, metric)
            npt.assert_allclose(rq, rc, atol=1e-10)

    def test_sweeps_never_exceed_one(self):
        for metric, dim in ((FISHER, 4), ("gns", 3), ("bkm", 3)):
            rep = run_contraction_audit(metric, dim, trials=200, seed=11)
            assert rep.skipped == 0
            assert rep.worst_violation <= 1e-10
            assert len(rep.ratios) == 200

    def test_composition_multiplies_ratios(self):
        rng = np.random.default_rng(9)
        m1 = random_stochastic_map(4, 4, seed=21)
        m2 = random_stochastic_map(4, 4, seed=22)
        rho = FiniteDistribution(rng.dirichlet(np.ones(4)) * 0.9 + 0.025)
        v = rng.normal(size=4)
        t = mixture_tangent(v - v.mean())
        r1 = audit_metric_contraction(m1, rho, t, FISHER)
        pushed_rho = push_state(m1, rho)
        pushed_t = mixture_tangent(t.vec @ m1.matrix)
        r2 = audit_metric_contraction(m2, pushed_rho, pushed_t, FISHER)
        both = ClassicalStochasticMap(m1.matrix @ m2.matrix)
        r12 = audit_metric_contraction(both, rho, t, FISHER)
        assert r12 <= r1 * r2 + 1e-9
        npt.assert_allclose(r12, r1 * r2, atol=1e-9)

    def test_report_histogram(self):
        rep = run_contraction_audit(FISHER, 3, trials=50, seed=13)
        counts, edges = rep.histogram()
        assert counts.sum() == 50

    def test_histogram_counts_violations(self):
        # a ratio above 1 is what the sweep looks for: the last bin takes it
        ratios = np.array([0.25, 0.5, 1.0, 1.0 + 1e-12])
        rep = maps.ContractionReport("bkm", 4, 0, ratios, 1e-12)
        counts, edges = rep.histogram(bins=4)
        npt.assert_array_equal(counts, [0, 1, 1, 2])
        npt.assert_array_equal(edges, [0.0, 0.25, 0.5, 0.75, 1.0 + 1e-12])
        within = maps.ContractionReport("bkm", 3, 0, ratios[:3], 0.0).histogram(4)
        npt.assert_array_equal(within[1], np.linspace(0.0, 1.0, 5))
        empty = maps.ContractionReport("bkm", 1, 1, ratios[:0], -np.inf)
        assert empty.histogram(4)[0].sum() == 0

    @pytest.mark.parametrize("metric", ["gns", "bkm"])
    def test_one_eigh_per_quantum_pass(self, monkeypatch, metric):
        # the drawn states are composed from their spectra; only the pushed
        # states, whose spectra are unknown, are decomposed
        calls = []
        eigh = qstates.eigh

        def counted(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(qstates, "eigh", counted)
        monkeypatch.setattr(maps, "_PASS_ENTRIES", 2 * 3 * 3)
        rep = run_contraction_audit(metric, 3, trials=7, seed=81)
        assert rep.skipped == 0
        assert calls == [(2, 3, 3)] * 3 + [(1, 3, 3)]


class TestSweepInput:
    @pytest.mark.parametrize("metric", [FISHER, "gns", "bkm"])
    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_dim_below_two_rejected(self, metric, dim):
        with pytest.raises(ValueError, match=rf"^dim must be >= 2 .*got {dim}$"):
            run_contraction_audit(metric, dim, trials=5, seed=1)

    @pytest.mark.parametrize("metric", [FISHER, "gns", "bkm"])
    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_rejected(self, metric, trials):
        with pytest.raises(ValueError, match=rf"^trials must be >= 1, got {trials}$"):
            run_contraction_audit(metric, 3, trials=trials, seed=1)

    def test_unknown_metric_lists_names(self):
        known = r"; expected one of \['bkm', 'fisher', 'gns'\]"
        with pytest.raises(ValueError, match="'bmk'" + known):
            run_contraction_audit("bmk", 3, trials=5, seed=1)
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        with pytest.raises(ValueError, match="'sld'" + known):
            mixture_squared_length("sld", rho, np.diag([0.1, -0.1]))

    def test_metric_table(self):
        assert sorted(METRIC_KERNELS) == ["bkm", "gns"]


def _mismatched_audits():
    """(map, state, tangent, metric, message) whose kinds or sizes differ."""
    cmap2 = ClassicalStochasticMap(np.eye(2))
    cmap3 = ClassicalStochasticMap(np.eye(3))
    mixing = ClassicalStochasticMap([[0.9, 0.1], [0.3, 0.7]])
    chan2, chan3 = depolarizing(0.1), QuantumCPUnitalMap([np.eye(3)])
    p2, p3 = FiniteDistribution([0.4, 0.6]), FiniteDistribution([0.2, 0.3, 0.5])
    rho2, rho3 = DensityMatrix(np.diag([0.4, 0.6])), DensityMatrix(np.eye(3) / 3)
    v2, d2 = mixture_tangent([0.1, -0.1]), mixture_qtangent(np.diag([0.1, -0.1]))
    quantum_map = "metric 'bkm' takes a QuantumCPUnitalMap, got ClassicalStochasticMap"
    return [
        (cmap2, rho2, d2, "bkm", quantum_map),
        (mixing, rho2, d2, "bkm", quantum_map),
        (cmap2, p2, v2, "bkm",
         "metric 'bkm' takes a DensityMatrix, got FiniteDistribution"),
        (chan2, rho2, d2, FISHER,
         "metric 'fisher' takes a FiniteDistribution, got DensityMatrix"),
        (cmap2, p2, d2, FISHER,
         "metric 'fisher' takes a ClassicalTangent, got QuantumTangent"),
        (chan2, rho2, v2, "gns", "metric 'gns' takes a QuantumTangent, got ClassicalTangent"),
        (cmap3, p3, v2, FISHER, "tangent has shape (2,) but the state has size 3"),
        (chan3, rho3, d2, "bkm", "tangent has shape (2, 2) but the state has size 3"),
        (cmap3, p2, v2, FISHER, "map input has size 3 but the state has size 2"),
        (chan3, rho2, d2, "gns", "map input has size 3 but the state has size 2"),
    ]


@pytest.mark.parametrize(
    "mapping, state, tangent, metric, message", _mismatched_audits()
)
def test_audit_names_mismatched_input(mapping, state, tangent, metric, message):
    with pytest.raises(ValueError) as info:
        audit_metric_contraction(mapping, state, tangent, metric)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "metric, state, tangent, message",
    [
        (FISHER, DensityMatrix(np.diag([0.4, 0.6])), np.diag([0.1, -0.1]),
         "metric 'fisher' takes a FiniteDistribution, got DensityMatrix"),
        ("bkm", FiniteDistribution([0.4, 0.6]), np.diag([0.1, -0.1]),
         "metric 'bkm' takes a DensityMatrix, got FiniteDistribution"),
        (FISHER, FiniteDistribution([0.2, 0.3, 0.5]), [0.1, -0.1],
         "tangent has shape (2,) but the state has size 3"),
        ("gns", DensityMatrix(np.eye(3) / 3), np.diag([0.1, -0.1]),
         "tangent has shape (2, 2) but the state has size 3"),
    ],
)
def test_squared_length_names_mismatched_input(metric, state, tangent, message):
    with pytest.raises(ValueError) as info:
        mixture_squared_length(metric, state, tangent)
    assert str(info.value) == message


def reset_channel(dim):
    """Kraus set |0><k|, k < dim: every state goes to the pure state |0><0|."""
    ops = np.zeros((dim, dim, dim), dtype=complex)
    ops[np.arange(dim), 0, np.arange(dim)] = 1.0
    return ops


class TestSweepFloor:
    """Trials at the faithfulness floor are skipped one by one."""

    def patched(self, monkeypatch, metric, edit):
        name = "_draw_classical" if metric == FISHER else "_draw_quantum"
        draw = getattr(maps, name)

        def edited(children, dim):
            return edit(*draw(children, dim))

        monkeypatch.setattr(maps, name, edited)

    @pytest.mark.parametrize("metric", [FISHER, "gns", "bkm"])
    def test_one_pushed_state_at_floor(self, monkeypatch, metric):
        clean = run_contraction_audit(metric, 3, trials=12, seed=77)
        assert clean.skipped == 0

        def edit(ops, states, spectra, tangents):
            ops = ops.copy()
            if metric == FISHER:
                ops[4] = np.tile([1.0, 0.0, 0.0], (3, 1))
            else:
                ops[4] = reset_channel(3)
            return ops, states, spectra, tangents

        self.patched(monkeypatch, metric, edit)
        rep = run_contraction_audit(metric, 3, trials=12, seed=77)
        assert rep.trials == 12 and rep.skipped == 1
        npt.assert_array_equal(rep.ratios, np.delete(clean.ratios, 4))
        assert rep.worst_violation == float((rep.ratios - 1.0).max())

    @pytest.mark.parametrize("metric", [FISHER, "bkm"])
    def test_passes_split_the_trials(self, monkeypatch, metric):
        whole = run_contraction_audit(metric, 3, trials=7, seed=80)
        monkeypatch.setattr(maps, "_PASS_ENTRIES", 2 * 3 * 3)
        split = run_contraction_audit(metric, 3, trials=7, seed=80)
        npt.assert_array_equal(split.ratios, whole.ratios)
        assert split.worst_violation == whole.worst_violation

    def test_one_state_at_floor(self, monkeypatch):
        clean = run_contraction_audit("bkm", 3, trials=8, seed=78)

        def edit(ops, states, spectra, tangents):
            # only trial 6 changes: its state and its decomposition
            states, (w, u) = states.copy(), (f.copy() for f in spectra)
            states[6], (w[6], u[6]) = maps.compose_density(
                [1.0, 0.0, 0.0], np.eye(3), allow_boundary=True
            )
            return ops, states, SpectralDecomposition(w, u), tangents

        self.patched(monkeypatch, "bkm", edit)
        rep = run_contraction_audit("bkm", 3, trials=8, seed=78)
        assert rep.skipped == 1
        npt.assert_array_equal(rep.ratios, np.delete(clean.ratios, 6))

    def test_zero_tangent_still_raises(self, monkeypatch):
        def edit(ops, states, spectra, tangents):
            tangents = tangents.copy()
            tangents[2] = 0.0
            return ops, states, spectra, tangents

        self.patched(monkeypatch, "gns", edit)
        with pytest.raises(ValueError, match="zero input tangent"):
            run_contraction_audit("gns", 3, trials=5, seed=79)

    def test_single_audit_raises_at_floor(self):
        chan = QuantumCPUnitalMap(reset_channel(3))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        t = mixture_qtangent(np.diag([0.1, -0.05, -0.05]))
        with pytest.raises(BoundaryError, match="pushed state is not faithful"):
            audit_metric_contraction(chan, rho, t, "bkm")
        m = ClassicalStochasticMap(np.tile([1.0, 0.0, 0.0], (3, 1)))
        with pytest.raises(BoundaryError, match="pushed distribution is not faithful"):
            audit_metric_contraction(
                m, FiniteDistribution([0.5, 0.3, 0.2]),
                mixture_tangent([0.1, -0.05, -0.05]), FISHER,
            )


class TestFamilyInfoAudit:
    def test_identity_map_ratio_one(self):
        fam = ParametricFamily.from_map(
            lambda th: FiniteDistribution([1 - th[0], th[0]]), 1, 2
        )
        m = ClassicalStochasticMap(np.eye(2))
        npt.assert_allclose(audit_family_info(m, fam, [0.3]), 1.0, atol=1e-8)
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        chan = QuantumCPUnitalMap([np.eye(2)])
        npt.assert_allclose(
            audit_family_info(chan, (rho, np.diag([0.1, -0.1])), None), 1.0, atol=1e-12
        )

    def test_binary_symmetric_channel_closed_form(self):
        # Bernoulli(eta) through flip(eps): eta' = eps + (1-2 eps) eta and
        # G'(eta) = (1-2 eps)^2 / (eta'(1-eta')); the ratio follows.
        eps, eta = 0.1, 0.3
        fam = ParametricFamily.from_map(
            lambda th: FiniteDistribution([1 - th[0], th[0]]), 1, 2
        )
        m = ClassicalStochasticMap([[1 - eps, eps], [eps, 1 - eps]])
        ratio = audit_family_info(m, fam, [eta])
        eta_p = eps + (1 - 2 * eps) * eta
        expected = ((1 - 2 * eps) ** 2 / (eta_p * (1 - eta_p))) / (
            1.0 / (eta * (1 - eta))
        )
        npt.assert_allclose(ratio, expected, rtol=1e-6)
        assert ratio < 1.0

    def test_quantum_commuting_matches_classical(self):
        p0 = np.array([0.5, 0.3, 0.2])
        dp = np.array([0.05, -0.02, -0.03])
        s = random_stochastic_map(3, 3, seed=31)
        fam = ParametricFamily.from_map(
            lambda th: FiniteDistribution(p0 + th[0] * dp), 1, 3
        )
        classical = audit_family_info(s, fam, [0.0])
        # embed as diagonal quantum objects through the transposed-Kraus
        # channel that reproduces the classical push on diagonals
        kraus = []
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[j, i] = np.sqrt(s.matrix[i, j])
                kraus.append(e)
        chan = QuantumCPUnitalMap(kraus)
        rho = DensityMatrix(np.diag(p0))
        quantum = audit_family_info(chan, (rho, np.diag(dp)), None)
        npt.assert_allclose(quantum, classical, atol=1e-10)

    def test_degenerate_family_reports_zero(self):
        # also through maps whose pushed state is not faithful
        fam = ParametricFamily.from_map(lambda th: uniform(3), 1, 3)
        for matrix in (np.eye(3), np.tile([1.0, 0.0, 0.0], (3, 1))):
            m = ClassicalStochasticMap(matrix)
            assert audit_family_info(m, fam, [0.2]) == 0.0
        chan = QuantumCPUnitalMap(reset_channel(3))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        assert audit_family_info(chan, (rho, np.zeros((3, 3))), None) == 0.0

    @pytest.mark.parametrize(
        "matrix",
        [
            np.tile([1.0, 0.0, 0.0], (3, 1)),
            # no input reaches the last output
            [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [1.0, 0.0, 0.0]],
        ],
    )
    def test_non_faithful_pushed_distribution_raises(self, matrix):
        fam = ParametricFamily.from_map(
            lambda th: FiniteDistribution([0.5 + th[0], 0.3 - th[0], 0.2]), 1, 3
        )
        m = ClassicalStochasticMap(matrix)
        with pytest.raises(BoundaryError, match="pushed distribution is not faithful"):
            audit_family_info(m, fam, [0.0])

    @pytest.mark.parametrize("metric", [None, "gns", "bkm"])
    def test_non_faithful_pushed_state_raises(self, metric):
        # None: the family audit, which audits a quantum path in bkm
        chan = QuantumCPUnitalMap(reset_channel(3))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        drho = np.diag([0.1, -0.05, -0.05])
        with pytest.raises(BoundaryError, match="pushed state is not faithful"):
            if metric is None:
                audit_family_info(chan, (rho, drho), None)
            else:
                audit_metric_contraction(chan, rho, drho, metric)


class TestRandomMaps:
    def test_seed_repeatable(self):
        a = random_stochastic_map(3, 3, seed=5)
        b = random_stochastic_map(3, 3, seed=5)
        npt.assert_array_equal(a.matrix, b.matrix)
        qa = random_cp_unital_map(3, seed=5)
        qb = random_cp_unital_map(3, seed=5)
        for x, y in zip(qa.kraus, qb.kraus):
            npt.assert_array_equal(x, y)

    def test_unitality_residual_sweep(self):
        for seed in range(100):
            chan = random_cp_unital_map(3, seed=seed)
            total = sum(a.conj().T @ a for a in chan.kraus)
            assert np.linalg.norm(total - np.eye(3)) <= 1e-10

    def test_kraus_is_one_read_only_stack(self):
        chan = random_cp_unital_map(3, seed=6)
        assert chan.kraus.shape == (3, 3, 3)
        assert not chan.kraus.flags.writeable
        assert all(a.shape == (3, 3) for a in chan.kraus)

    def test_pushes_round_like_per_operator_sums(self):
        rng = np.random.default_rng(12)
        chan = random_cp_unital_map(3, seed=7)
        rho = random_density(rng, 3)
        state = sum(a @ rho.matrix @ a.conj().T for a in chan.kraus)
        npt.assert_array_equal(push_state(chan, rho).matrix, hermitian_part(state))
        m = random_stochastic_map(4, 3, seed=8)
        p = FiniteDistribution(rng.dirichlet(np.ones(4)))
        npt.assert_array_equal(push_state(m, p).probs, p.probs @ m.matrix)

    def test_rectangular_quantum_map(self):
        chan = random_cp_unital_map(2, dim_out=4, n_kraus=2, seed=9)
        rho = DensityMatrix(np.eye(2) / 2)
        out = push_state(chan, rho)
        assert out.dim == 4
        npt.assert_allclose(np.trace(out.matrix).real, 1.0, atol=1e-12)
