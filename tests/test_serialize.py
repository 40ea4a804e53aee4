import json

import numpy as np
import numpy.testing as npt
import pytest

import infogeo.classical.families as families
from infogeo.classical import (
    CanonicalPoint,
    ExponentialFamily,
    FiniteDistribution,
    entropy,
    full_simplex_family,
    geodesic,
    geodesic_mixture_coords,
    mixture_tangent,
)
from infogeo.kubomori import PerturbationProblem, expand_log_z
from infogeo.maps import run_contraction_audit
from infogeo.projection import MarkovGenerator, roll
from infogeo.serialize import (
    contraction_report_to_json,
    density_from_json,
    distribution_from_json,
    dump_json,
    family_from_json,
    format_float,
    geodesic_to_csv,
    matrix_from_json,
    matrix_to_json,
    qfamily_from_json,
    run_to_csv,
    series_report_to_json,
    tangent_from_json,
    tangent_to_json,
)
from infogeo.quantum import QuantumExponentialFamily


class TestFloats:
    def test_seventeen_digits_round_trip(self):
        for x in (1 / 3, np.pi, 1e-17, -2.5, 0.1 + 0.2):
            assert float(format_float(x)) == x

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_nonfinite_message_prints_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^cannot serialize non-finite value nan$"):
            format_float(np.float64("nan"))
        with pytest.raises(ValueError, match=r"non-finite value -inf$"):
            format_float(np.float32("-inf"))

    def test_dump_json_is_valid_json(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": "x\"y"}}
        parsed = json.loads(dump_json(doc))
        assert parsed["a"] == [1, 2.5, None, True]
        assert parsed["b"]["c"] == 'x"y'


class TestMatrixRoundTrip:
    def test_real_matrix_omits_imaginary_block(self):
        doc = matrix_to_json(np.eye(2))
        assert "im" not in doc
        npt.assert_allclose(matrix_from_json(doc), np.eye(2))

    def test_complex_round_trip(self):
        m = np.array([[1.0, 2 + 3j], [2 - 3j, -1.0]])
        back = matrix_from_json(matrix_to_json(m))
        npt.assert_allclose(back, m)

    def test_json_text_round_trip(self):
        m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        doc = json.loads(dump_json(matrix_to_json(m)))
        npt.assert_allclose(matrix_from_json(doc), m)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            matrix_from_json({"dim": 3, "re": [[1.0, 0.0], [0.0, 1.0]]})

    def test_density_trace_tolerance(self):
        m = np.diag([0.6, 0.4]) * (1 + 5e-10)
        doc = matrix_to_json(m)
        doc["trace_tol"] = 1e-9
        rho = density_from_json(doc)
        npt.assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-15)


class TestObjectRoundTrips:
    def test_distribution(self):
        doc = {"omega": 2, "probs": [0.25, 0.75]}
        back = distribution_from_json(json.loads(dump_json(doc)))
        npt.assert_allclose(back.probs, [0.25, 0.75])

    def test_family(self):
        doc = {"omega": 3, "features": [[0.0, 1.0, 2.0]],
               "base_log_density": [0.1, 0.0, -0.2]}
        back = family_from_json(json.loads(dump_json(doc)))
        npt.assert_allclose(back.features, [[0.0, 1.0, 2.0]])
        npt.assert_allclose(back.base_log_density, [0.1, 0.0, -0.2])

    def test_tangent(self):
        t = mixture_tangent([0.2, -0.2])
        back = tangent_from_json(tangent_to_json(t))
        assert back.rep == t.rep
        npt.assert_allclose(back.vec, t.vec)

    def test_quantum_family(self):
        fam = QuantumExponentialFamily(
            np.diag([0.3, -0.3]), [np.array([[0, 1], [1, 0]], dtype=complex)]
        )
        doc = {"dim": fam.dim, "H0": matrix_to_json(fam.h0),
               "features": [matrix_to_json(f) for f in fam.features]}
        back = qfamily_from_json(json.loads(dump_json(doc)))
        npt.assert_allclose(back.h0, fam.h0)
        npt.assert_allclose(back.features[0], fam.features[0])


class TestReportAndCsv:
    def test_contraction_report_json(self):
        rep = run_contraction_audit("fisher", 3, trials=20, seed=0)
        doc = json.loads(dump_json(contraction_report_to_json(rep)))
        assert doc["trials"] == 20
        assert sum(doc["ratios_histogram"]) == 20 - doc["skipped"]

    def test_series_report_json(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        rep = expand_log_z(PerturbationProblem(a + a.T, 0.1 * (a + a.T)))
        doc = json.loads(dump_json(series_report_to_json(rep)))
        assert len(doc["terms"]) == len(doc["partials"])
        assert isinstance(doc["diverged"], bool)

    def test_geodesic_csv_shape(self):
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        path = geodesic(fam.point([0.0]), np.array([0.5]), 0.0, t_max=0.2, dt=0.05)
        csv = geodesic_to_csv(path)
        lines = csv.strip().split("\n")
        assert lines[0] == "t,xi_1,eta_1,psi,entropy"
        assert len(lines) == 1 + len(path.times)

    def test_geodesic_csv_normalises_each_sample_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        for fam in (full_simplex_family(5), ExponentialFamily(rng.normal(size=(2, 7)))):
            n = fam.n_features
            path = geodesic(fam.point(rng.normal(scale=0.3, size=n)),
                            rng.normal(size=n), 0.5, t_max=0.3, dt=0.05)
            # the table as built before: eta through geodesic_mixture_coords,
            # then a second point per sample for psi and the entropy
            etas = geodesic_mixture_coords(path)
            rows = ["t," + ",".join([f"xi_{j + 1}" for j in range(n)]
                                    + [f"eta_{j + 1}" for j in range(n)])
                    + ",psi,entropy"]
            for i, t in enumerate(path.times):
                pt = CanonicalPoint(fam, path.xis[i])
                row = [t, *path.xis[i], *etas[i], pt.psi, entropy(pt.distribution())]
                rows.append(",".join(format_float(v) for v in row))
            expected = "\n".join(rows) + "\n"

            calls = []
            log_normalize = families._log_normalize

            def counting(family, xi):
                calls.append(1)
                return log_normalize(family, xi)

            with monkeypatch.context() as m:
                m.setattr(families, "_log_normalize", counting)
                csv = geodesic_to_csv(path)
            assert len(calls) == len(path.times)
            assert csv.encode() == expected.encode()

    def test_run_csv_deterministic(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        gen = MarkovGenerator(q)
        fam = ExponentialFamily(np.array([[0.0, 1.0]]))
        rho0 = FiniteDistribution([0.8, 0.2])
        a = run_to_csv(roll(rho0, gen, fam, 0.1, 5))
        b = run_to_csv(roll(rho0, gen, fam, 0.1, 5))
        assert a == b
        assert a.startswith("t,xi_1,eta_1,entropy,projection_defect\n")


SIGMA_Z = {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}


@pytest.mark.parametrize(
    "reader, doc, error, message",
    [
        (matrix_from_json, {"dim": 2}, ValueError,
         "matrix document needs an 're' block"),
        (matrix_from_json, {"re": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}, ValueError,
         "matrix blocks must be square and matching: (2, 3)"),
        (matrix_from_json, {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]},
         ValueError, "matrix blocks must be square and matching: (2, 2)"),
        (distribution_from_json, {"omega": 2}, ValueError,
         "distribution document needs a 'probs' vector"),
        (distribution_from_json, {"omega": 3, "probs": [0.5, 0.5]}, ValueError,
         "declared omega 3 != vector size 2"),
        (family_from_json, {"omega": 2}, ValueError,
         "family document needs a 'features' block"),
        (family_from_json, {"omega": 3, "features": [[0.0, 1.0]]}, ValueError,
         "declared omega 3 != feature length 2"),
        (family_from_json, {"features": [[0.0, 1.0, 2.0]], "base_log_density": [0.0, 1.0]},
         ValueError, "base log density has shape (2,), expected (3,)"),
        (tangent_from_json, {"rep": "mixture"}, ValueError,
         "tangent document needs 'rep' and 'vec'"),
        (tangent_from_json, {"vec": [0.1, -0.1]}, ValueError,
         "tangent document needs 'rep' and 'vec'"),
        (qfamily_from_json, {"dim": 2}, ValueError,
         "quantum family document needs a 'features' list"),
        (qfamily_from_json,
         {"dim": 2, "H0": {"re": np.eye(3).tolist()}, "features": [SIGMA_Z]},
         ValueError, "declared dim 2 != H0 size 3"),
        (format_float, True, TypeError, "bool is not a float"),
        (dump_json, {"a": object()}, TypeError, "cannot serialize object"),
    ],
)
def test_wire_format_checks_name_the_fault(reader, doc, error, message):
    with pytest.raises(error) as info:
        reader(doc)
    assert str(info.value) == message
