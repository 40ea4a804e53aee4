import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import infogeo
from infogeo.classical import ExponentialFamily, maxent_fit
from infogeo.cli import build_parser, run
from infogeo.kubomori import PerturbationProblem, expand_log_z
from infogeo.maps import run_contraction_audit
from infogeo.serialize import (
    contraction_report_to_json,
    dump_json,
    matrix_to_json,
    series_report_to_json,
)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write(path, doc):
    path.write_text(dump_json(doc))
    return str(path)


def coin_family_doc():
    return {"omega": 2, "features": [[0.0, 1.0]]}


class TestFitClassical:
    def test_coin_symmetry(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        assert run(["fit-classical", "--family", fam, "--means", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        npt.assert_allclose(doc["xi"], [0.0], atol=1e-10)
        npt.assert_allclose(doc["psi"], np.log(2), atol=1e-12)
        assert doc["tolerance_overridden"] is False

    def test_matches_library_exactly(self, workdir, capsys):
        fam_doc = {"omega": 3, "features": [[0.0, 1.0, 2.0]]}
        fam = write(workdir / "f.json", fam_doc)
        assert run(["fit-classical", "--family", fam, "--means", "0.8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pt = maxent_fit(ExponentialFamily(np.array([[0.0, 1.0, 2.0]])), [0.8])
        assert doc["xi"] == pt.xi.tolist()  # byte-identical float path

    def test_tolerance_reaches_solver(self, workdir, capsys):
        fam_doc = {"omega": 3, "features": [[0.0, 1.0, 2.0]]}
        fam = write(workdir / "f.json", fam_doc)
        assert run(
            ["fit-classical", "--family", fam, "--means", "1.9", "--tol", "1e-2"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        family = ExponentialFamily(np.array([[0.0, 1.0, 2.0]]))
        assert doc["tolerance_overridden"] is True
        assert doc["xi"] == maxent_fit(family, [1.9], tol=1e-2).xi.tolist()
        assert doc["xi"] != maxent_fit(family, [1.9]).xi.tolist()

    def test_infeasible_target_exits_one(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        assert run(["fit-classical", "--family", fam, "--means", "1.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert run(["fit-classical", "--family", "nope.json", "--means", "0.5"]) == 2

    @pytest.mark.parametrize("means", ["nan", "inf"])
    def test_non_finite_target_exits_two(self, workdir, capsys, means):
        fam = write(workdir / "coin.json", coin_family_doc())
        assert run(["fit-classical", "--family", fam, "--means", means]) == 2
        assert "target means must be finite" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert run(["fit-classical", "--family", str(bad), "--means", "0.5"]) == 2

    def test_unknown_flag_exits_two(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        code = run(["fit-classical", "--family", fam, "--means", "0.5", "--bogus"])
        assert code == 2

    @pytest.mark.parametrize(
        "doc", [{"omega": 3, "features": []}, {"features": []}]
    )
    def test_empty_feature_list_exits_two(self, workdir, capsys, doc):
        fam = write(workdir / "f.json", doc)
        assert run(["fit-classical", "--family", fam, "--means", "0.0"]) == 2
        assert capsys.readouterr().err == "input error: need at least one feature\n"

    def test_near_boundary_interior_target_exits_zero(self, workdir, capsys):
        # the fit converges with a least probability below 1e-14
        fam = write(workdir / "f.json", {"omega": 3, "features": [[0.0, 1.0, 2.0]]})
        assert run(["fit-classical", "--family", fam, "--means", "1.99999995"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pt = maxent_fit(ExponentialFamily(np.array([[0.0, 1.0, 2.0]])), [1.99999995])
        assert pt.probs().min() < 1e-14
        assert doc["xi"] == pt.xi.tolist()
        assert doc["entropy"] == -float((pt.probs() * np.log(pt.probs())).sum())


class TestFitQuantum:
    def test_qubit_symmetric(self, workdir, capsys):
        fam = write(
            workdir / "qf.json",
            {
                "dim": 2,
                "H0": {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]]},
                "features": [{"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}],
            },
        )
        assert run(["fit-quantum", "--family", fam, "--means", "0.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        npt.assert_allclose(doc["xi"], [0.0], atol=1e-10)
        npt.assert_allclose(doc["entropy"], np.log(2), atol=1e-10)

    @pytest.mark.parametrize("means", ["nan", "inf"])
    def test_non_finite_target_exits_two(self, workdir, capsys, means):
        fam = write(
            workdir / "qf.json",
            {
                "dim": 2,
                "H0": {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]]},
                "features": [{"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}],
            },
        )
        assert run(["fit-quantum", "--family", fam, "--means", means]) == 2
        assert "target means must be finite" in capsys.readouterr().err

    def test_empty_feature_list_exits_two(self, workdir, capsys):
        fam = write(workdir / "qf.json", {"features": []})
        assert run(["fit-quantum", "--family", fam, "--means", "0.0"]) == 2
        assert "empty 'features' list" in capsys.readouterr().err


class TestCramerRao:
    def test_feature_estimators_saturate(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        assert run(["cramer-rao", "--family", fam, "--theta", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        npt.assert_allclose(doc["V"], [[0.21]], rtol=1e-9)
        assert abs(doc["gap_min_eig"]) < 1e-10
        npt.assert_allclose(doc["efficiency"], 1.0, rtol=1e-8)

    def test_biased_estimators_exit_one(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        est = write(workdir / "est.json", [[0.5, 1.5]])
        code = run(
            ["cramer-rao", "--family", fam, "--theta", "0.3", "--estimators", est]
        )
        assert code == 1


class TestQuantumCramerRao:
    def test_bkm_saturation_via_cli(self, workdir, capsys):
        fam = write(
            workdir / "qf.json",
            {
                "dim": 2,
                "H0": {"dim": 2, "re": [[0.4, 0.1], [0.1, -0.4]]},
                "features": [{"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]]}],
            },
        )
        assert run(["quantum-cramer-rao", "--family", fam, "--mean", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["bkm_pairing_slack"]) <= 1e-8
        assert doc["slack"]["GNS_SLD"] >= -1e-9


class TestGeodesicAndTransport:
    def test_geodesic_csv(self, workdir, capsys):
        fam = write(workdir / "f.json", {"omega": 3, "features": [[0.0, 1.0, 2.0]]})
        out = workdir / "path.csv"
        code = run(
            [
                "geodesic", "--family", fam, "--xi0", "0.1", "--v0", "0.4",
                "--alpha", "1.0", "--t-max", "0.5", "--dt", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,xi_1,eta_1,psi,entropy"
        assert len(lines) == 7  # header + 6 samples

    def test_geodesic_csv_near_the_boundary(self, workdir, capsys):
        # the path passes probabilities below the faithfulness floor (1e-14);
        # its entropy column needs no faithful distribution
        fam = write(
            workdir / "f.json", {"omega": 3, "features": [[0, 1, 0], [0, 0, 1]]}
        )
        code = run(
            [
                "geodesic", "--family", fam, "--xi0=0,0", "--v0=40,0",
                "--alpha", "1", "--t-max", "1", "--dt", "0.1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
        assert len(rows) == 11
        assert float(rows[-1][2]) < 1e-14  # eta_1 = p_1 at xi = (40, 0)
        npt.assert_allclose(float(rows[-1][-1]), np.log(2), atol=1e-12)

    def test_transport_duality_via_cli(self, workdir, capsys):
        rho = write(workdir / "rho.json", {"omega": 2, "probs": [0.6, 0.4]})
        sig = write(workdir / "sig.json", {"omega": 2, "probs": [0.3, 0.7]})
        tan = write(workdir / "t.json", {"rep": "mixture", "vec": [0.1, -0.1]})
        code = run(
            ["transport", "--rho", rho, "--sigma", sig, "--tangent", tan,
             "--which", "minus"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        npt.assert_allclose(doc["vec"], [0.1, -0.1])


class TestAudit:
    def test_byte_identical_reports(self, workdir):
        out1, out2 = workdir / "a.json", workdir / "b.json"
        argv = ["audit-monotonicity", "--metric", "bkm", "--dim", "3",
                "--trials", "50", "--seed", "7"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_library(self, workdir, capsys):
        assert run(
            ["audit-monotonicity", "--metric", "fisher", "--dim", "4",
             "--trials", "30", "--seed", "3"]
        ) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        lib_doc = contraction_report_to_json(
            run_contraction_audit("fisher", 4, 30, 3)
        )
        assert cli_doc == json.loads(dump_json(lib_doc))


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dim", "3", "--trials", "-2"], "trials must be >= 1, got -2"),
            (["--dim", "3", "--trials", "0"], "trials must be >= 1, got 0"),
            (["--dim", "0", "--trials", "5"], "dim must be >= 2 "),
            (["--dim", "1", "--trials", "5"], "dim must be >= 2 "),
        ],
    )
    def test_bad_size_exits_two(self, capsys, flags, message):
        argv = ["audit-monotonicity", "--metric", "bkm", "--seed", "1", *flags]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {message}")


class TestKuboExpand:
    def test_json_matches_library(self, workdir, capsys):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        h0 = 0.5 * (a + a.T)
        v = 0.1 * h0 + 0.05 * np.eye(3)
        f_h0 = write(workdir / "h0.json", matrix_to_json(h0))
        f_v = write(workdir / "v.json", matrix_to_json(v))
        assert run(["kubo-expand", "--h0", f_h0, "--v", f_v]) == 0
        doc = json.loads(capsys.readouterr().out)
        lib = series_report_to_json(expand_log_z(PerturbationProblem(h0, v)))
        assert doc == json.loads(dump_json(lib))

    def test_csv_mode(self, workdir, capsys):
        f_h0 = write(workdir / "h0.json", matrix_to_json(np.diag([0.0, 1.0])))
        f_v = write(workdir / "v.json", matrix_to_json(np.diag([0.1, -0.1])))
        assert run(["kubo-expand", "--h0", f_h0, "--v", f_v, "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("order,term,partial_sum,truncation_error\n")


class TestProjectSimulate:
    def test_classical_run(self, workdir, capsys):
        cfg = write(
            workdir / "run.json",
            {
                "generator": [[-1.0, 1.0], [1.0, -1.0]],
                "family": {"omega": 2, "features": [[0.0, 1.0]]},
                "dt": 0.1,
                "steps": 5,
                "initial": {"omega": 2, "probs": [0.8, 0.2]},
            },
        )
        assert run(["project-simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "t,xi_1,eta_1,entropy,projection_defect"
        assert len(lines) == 7

    def test_missing_key_exits_two(self, workdir, capsys):
        cfg = write(workdir / "run.json", {"dt": 0.1})
        assert run(["project-simulate", "--config", cfg]) == 2

    def test_non_finite_generator_exits_two(self, workdir, capsys):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({
            "generator": [[-1.0, float("nan")], [1.0, -1.0]],
            "family": {"omega": 2, "features": [[0.0, 1.0]]},
            "dt": 0.1, "steps": 5, "initial": {"omega": 2, "probs": [0.8, 0.2]},
        }))
        assert run(["project-simulate", "--config", str(cfg)]) == 2
        assert "generator has non-finite rates" in capsys.readouterr().err

    def test_stiff_generator_exits_two(self, workdir, capsys):
        cfg = write(workdir / "run.json", {
            "generator": [[-1e20, 1e20], [1e20, -1e20]],
            "family": {"omega": 2, "features": [[0.0, 1.0]]},
            "dt": 0.1, "steps": 5, "initial": {"omega": 2, "probs": [0.8, 0.2]},
        })
        assert run(["project-simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "propagator exp(dt Q) is not stochastic" in err
        assert "dt times the largest rate is 1.000e+19" in err

    def test_non_finite_hamiltonian_exits_two(self, workdir, capsys):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({
            "hamiltonian": {"dim": 2, "re": [[0.0, float("inf")], [1.0, 0.0]]},
            "family": {"dim": 2, "features": [{"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}]},
            "dt": 0.1, "steps": 4, "initial": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]]},
        }))
        assert run(["project-simulate", "--config", str(cfg)]) == 2
        assert "hamiltonian has non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_kraus_exits_two(self, workdir, capsys, bad):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({
            "kraus": [{"dim": 2, "re": [[1.0, bad], [0.0, 1.0]]}],
            "family": {"dim": 2, "features": [{"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}]},
            "dt": 0.1, "steps": 4, "initial": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]]},
        }))
        assert run(["project-simulate", "--config", str(cfg)]) == 2
        assert "Kraus operators have non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"generator": [[-1.0, 1.0], [1.0, -1.0]],
              "family": {"omega": 3, "features": [[0.0, 1.0, 2.0]]},
              "initial": {"omega": 3, "probs": [0.2, 0.3, 0.5]}},
             "generator has size 2 but the family has size 3"),
            ({"generator": [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]],
              "family": {"omega": 3, "features": [[0.0, 1.0, 2.0]]},
              "initial": {"omega": 2, "probs": [0.8, 0.2]}},
             "initial state has size 2 but the family has size 3"),
            ({"hamiltonian": {"dim": 3, "re": np.eye(3).tolist()},
              "family": {"dim": 2, "features": [{"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}]},
              "initial": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]]}},
             "Hamiltonian has size 3 but the family has size 2"),
        ],
    )
    def test_mismatched_sizes_exit_two(self, workdir, capsys, config, message):
        cfg = write(workdir / "run.json", {**config, "dt": 0.1, "steps": 4})
        assert run(["project-simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_quantum_unitary_run(self, workdir, capsys):
        cfg = write(
            workdir / "run.json",
            {
                "hamiltonian": {"dim": 2, "im": [[0.0, -1.0], [1.0, 0.0]],
                                "re": [[0.0, 0.0], [0.0, 0.0]]},
                "family": {
                    "dim": 2,
                    "features": [
                        {"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]]},
                        {"dim": 2, "im": [[0.0, -1.0], [1.0, 0.0]],
                         "re": [[0.0, 0.0], [0.0, 0.0]]},
                        {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]},
                    ],
                },
                "dt": 0.1,
                "steps": 4,
                "initial": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]]},
            },
        )
        assert run(["project-simulate", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("t,xi_1,xi_2,xi_3,eta_1")
        assert len(lines) == 6
        # a full qubit family makes the projection exact: zero defect
        defects = [abs(float(l.split(",")[-1])) for l in lines[1:]]
        assert max(defects) < 1e-9

    def test_quantum_channel_run(self, workdir, capsys):
        q = 0.1
        s = np.sqrt
        cfg = write(
            workdir / "run.json",
            {
                "kraus": [
                    {"dim": 2, "re": [[s(1 - q), 0.0], [0.0, s(1 - q)]]},
                    {"dim": 2, "re": [[0.0, s(q / 3)], [s(q / 3), 0.0]]},
                    {"dim": 2, "im": [[0.0, -s(q / 3)], [s(q / 3), 0.0]],
                     "re": [[0.0, 0.0], [0.0, 0.0]]},
                    {"dim": 2, "re": [[s(q / 3), 0.0], [0.0, -s(q / 3)]]},
                ],
                "family": {
                    "dim": 2,
                    "features": [{"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]]}],
                },
                "dt": 1.0,
                "steps": 5,
                "initial": {"dim": 2, "re": [[0.9, 0.0], [0.0, 0.1]]},
            },
        )
        assert run(["project-simulate", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        means = [float(l.split(",")[2]) for l in lines[1:]]
        # depolarizing shrinks the block-spin mean toward zero each step
        assert all(abs(b) < abs(a) for a, b in zip(means, means[1:]))


class TestEntropyBoundAndSample:
    def test_entropy_bound_orthogonal(self, workdir, capsys):
        a = write(workdir / "a.json", {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]})
        b = write(workdir / "b.json", {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]]})
        assert run(
            ["entropy-bound", "--rho", a, "--sigma", b, "--lambda", "0.5"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        npt.assert_allclose(doc["slack"], 0.0, atol=1e-12)
        npt.assert_allclose(doc["lhs"], np.log(2), atol=1e-12)

    def test_sample_deterministic(self, workdir, capsys):
        d = write(workdir / "d.json", {"omega": 3, "probs": [0.2, 0.3, 0.5]})
        assert run(["sample", "--dist", d, "--count", "100", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert run(["sample", "--dist", d, "--count", "100", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        hist = json.loads(first)
        assert sum(hist) == 100

    def test_sample_message_prints_plain_numbers(self, workdir, capsys):
        d = write(workdir / "d.json", {"omega": 3, "probs": [0.5, 0.3, 0.3]})
        assert run(["sample", "--dist", d, "--count", "10", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "input error: probabilities sum to 1.1, not 1\n"


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*argv):
        src = str(Path(infogeo.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, "-m", "infogeo.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_help_prints_usage(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert "usage:" in proc.stdout

    def test_unknown_subcommand_exits_two(self):
        proc = self.run_module("no-such-command")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr


QUBIT_FAMILY = {
    "dim": 2,
    "H0": {"dim": 2, "re": [[0.4, 0.1], [0.1, -0.4]]},
    "features": [{"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]]}],
}


def subcommand_argvs(workdir):
    """One small successful argv per subcommand (two for kubo-expand)."""
    coin = write(workdir / "coin.json", coin_family_doc())
    three = write(workdir / "f.json", {"omega": 3, "features": [[0.0, 1.0, 2.0]]})
    qfam = write(workdir / "qf.json", QUBIT_FAMILY)
    rho = write(workdir / "rho.json", {"omega": 2, "probs": [0.6, 0.4]})
    sig = write(workdir / "sig.json", {"omega": 2, "probs": [0.3, 0.7]})
    tan = write(workdir / "t.json", {"rep": "mixture", "vec": [0.1, -0.1]})
    h0 = write(workdir / "h0.json", matrix_to_json(np.diag([0.0, 1.0])))
    v = write(workdir / "v.json", matrix_to_json(np.diag([0.1, -0.1])))
    cfg = write(workdir / "run.json", {
        "generator": [[-1.0, 1.0], [1.0, -1.0]], "family": coin_family_doc(),
        "dt": 0.1, "steps": 2, "initial": {"omega": 2, "probs": [0.8, 0.2]},
    })
    a = write(workdir / "a.json", {"dim": 2, "re": [[0.7, 0.0], [0.0, 0.3]]})
    b = write(workdir / "b.json", {"dim": 2, "re": [[0.2, 0.0], [0.0, 0.8]]})
    return {
        "fit-classical": ["--family", coin, "--means", "0.3"],
        "fit-quantum": ["--family", qfam, "--means", "0.2"],
        "cramer-rao": ["--family", coin, "--theta", "0.3"],
        "quantum-cramer-rao": ["--family", qfam, "--mean", "0.2"],
        "geodesic": ["--family", three, "--xi0", "0.1", "--v0", "0.4",
                     "--alpha", "0", "--t-max", "0.2", "--dt", "0.1"],
        "transport": ["--rho", rho, "--sigma", sig, "--tangent", tan,
                      "--which", "plus"],
        "audit-monotonicity": ["--metric", "gns", "--dim", "2", "--trials", "5",
                               "--seed", "1"],
        "kubo-expand": ["--h0", h0, "--v", v],
        "kubo-expand --csv": ["--h0", h0, "--v", v, "--csv"],
        "project-simulate": ["--config", cfg],
        "entropy-bound": ["--rho", a, "--sigma", b, "--lambda", "0.5"],
        "sample": ["--dist", rho, "--count", "10", "--seed", "1"],
    }


SUBCOMMAND_CASES = [
    "fit-classical", "fit-quantum", "cramer-rao", "quantum-cramer-rao",
    "geodesic", "transport", "audit-monotonicity", "kubo-expand",
    "kubo-expand --csv", "project-simulate", "entropy-bound", "sample",
]


class TestOutFile:
    def test_every_subcommand_has_a_case(self):
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert {case.split()[0] for case in SUBCOMMAND_CASES} == set(sub.choices)

    @pytest.mark.parametrize("case", SUBCOMMAND_CASES)
    def test_out_file_holds_the_stdout_bytes(self, workdir, capsys, case):
        argv = [case.split()[0], *subcommand_argvs(workdir)[case]]
        assert run(argv) == 0
        printed = capsys.readouterr()
        out = workdir / "out.txt"
        assert run(argv + ["--out", str(out)]) == 0
        written = capsys.readouterr()
        assert printed.out != ""
        assert written.out == ""
        assert written.err == printed.err
        assert out.read_bytes() == printed.out.encode("utf-8")

    def test_unwritable_out_exits_two(self, workdir, capsys):
        argv = ["sample", *subcommand_argvs(workdir)["sample"]]
        assert run(argv + ["--out", str(workdir / "no" / "such" / "dir")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: [Errno 2] No such file")


class TestWarningsAndInputErrors:
    def test_geodesic_leaving_the_box_warns(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        code = run(
            ["geodesic", "--family", fam, "--xi0", "0", "--v0", "100",
             "--alpha", "1", "--t-max", "1", "--dt", "0.1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().split("\n")) == 1 + 6
        assert captured.err == "warning: trajectory left the coordinate box early\n"

    def test_truncated_run_warns(self, workdir, capsys):
        cfg = write(workdir / "run.json", {
            "generator": [[-40.0, 0.0], [40.0, 0.0]], "family": coin_family_doc(),
            "dt": 1.0, "steps": 3, "initial": {"omega": 2, "probs": [0.5, 0.5]},
        })
        assert run(["project-simulate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) == 1 + 1
        assert captured.err == (
            "warning: run truncated: micro step 1: "
            "microdynamics left the faithful interior\n"
        )

    def test_run_config_without_dynamics_exits_two(self, workdir, capsys):
        cfg = write(workdir / "run.json", {
            "family": coin_family_doc(), "dt": 0.1, "steps": 2,
            "initial": {"omega": 2, "probs": [0.8, 0.2]},
        })
        assert run(["project-simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "input error: run config needs one of "
            "'generator', 'hamiltonian', 'kraus'\n"
        )

    def test_unparsable_vector_exits_two(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        assert run(["fit-classical", "--family", fam, "--means", "0.5,x"]) == 2
        assert capsys.readouterr().err == (
            "input error: could not parse vector '0.5,x': "
            "could not convert string to float: 'x'\n"
        )

    def test_infinite_geodesic_time_exits_two(self, workdir, capsys):
        fam = write(workdir / "coin.json", coin_family_doc())
        code = run(
            ["geodesic", "--family", fam, "--xi0", "0", "--v0", "1",
             "--alpha", "0", "--t-max", "inf"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: t_max must be finite\n"

    def test_observable_reaches_the_bound(self, workdir, capsys):
        # the feature itself is the default observable; twice it is biased
        fam = write(workdir / "qf.json", QUBIT_FAMILY)
        feature = QUBIT_FAMILY["features"][0]
        same = write(workdir / "same.json", feature)
        twice = write(
            workdir / "twice.json", matrix_to_json(2 * np.array(feature["re"]))
        )
        argv = ["quantum-cramer-rao", "--family", fam, "--mean", "0.2"]
        assert run(argv) == 0
        default = capsys.readouterr().out
        assert run(argv + ["--observable", same]) == 0
        assert capsys.readouterr().out == default
        assert run(argv + ["--observable", twice]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: observable is biased: mean ")

    def test_tangent_without_vector_exits_two(self, workdir, capsys):
        argvs = subcommand_argvs(workdir)
        write(workdir / "t.json", {"rep": "mixture"})
        assert run(["transport", *argvs["transport"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: tangent document needs 'rep' and 'vec'\n"


def _run_config(**fields):
    return {
        "generator": [[-1.0, 1.0], [1.0, -1.0]], "family": coin_family_doc(),
        "dt": 0.1, "steps": 2, "initial": {"omega": 2, "probs": [0.8, 0.2]},
        **fields,
    }


FIT = ["fit-classical", "--family", "doc.json", "--means", "1"]
FIT_QUANTUM = ["fit-quantum", "--family", "doc.json", "--means", "0.2"]
SAMPLE = ["sample", "--dist", "doc.json", "--count", "10", "--seed", "1"]
NAN_BASE = {"omega": 3, "features": [[0.0, 1.0, 2.0]],
            "base_log_density": [0.0, float("nan"), 0.0]}
THREE = {"omega": 3, "features": [[0.0, 1.0, 2.0]]}


def _geodesic(v0="1", alpha="0.5", *extra):
    return ["geodesic", "--family", "doc.json", "--xi0", "0.1", "--v0", v0,
            "--alpha", alpha, "--t-max", "1", *extra]


# (input document, argv reading it as doc.json, what the message must contain)
BAD_INPUTS = {
    "null family": (None, ["fit-classical", "--family", "doc.json", "--means", "1"],
                    "family document must be a JSON object"),
    **{
        f"omega {value!r}": (
            {**THREE, "omega": value},
            ["fit-classical", "--family", "doc.json", "--means", "1"],
            "family document 'omega' must be an integer",
        )
        for value in ("3", 3.5, True)
    },
    **{
        f"steps {value!r}": (_run_config(steps=value),
                             ["project-simulate", "--config", "doc.json"],
                             "run config 'steps' must be an integer")
        for value in ("5", 2.5, True)
    },
    "dim '2'": ({"dim": "2", "re": [[1.0, 0.0], [0.0, -1.0]]},
                ["kubo-expand", "--h0", "doc.json", "--v", "doc.json"],
                "matrix document 'dim' must be an integer"),
    "nan base, geodesic": (NAN_BASE, _geodesic(), "base log density must be finite"),
    "nan base, cramer-rao": (NAN_BASE, ["cramer-rao", "--family", "doc.json",
                                        "--theta", "1"],
                             "base log density must be finite"),
    **{
        f"theta nan, {p}": (THREE, ["cramer-rao", "--family", "doc.json",
                                    "--theta", "nan", "--parametrization", p],
                            "theta must be finite")
        for p in ("mixture", "canonical")
    },
    **{
        f"v0 1e300, alpha {alpha}": (THREE, _geodesic("1e300", alpha),
                                     "velocity is too large")
        for alpha in ("1", "0.5")
    },
    "t_max / dt 1e310": (
        THREE, _geodesic("1", "0.5", "--t-max", "1e300", "--dt", "1e-10"),
        "t_max / dt = inf: more than 1000000 samples",
    ),
    **{
        f"features {value!r}": (
            {"omega": 3, "features": value}, FIT, "family document 'features' must be "
            "an array of numbers",
        )
        for value in ([[0.0, {}, 2.0]], [["0", "1", "2"]],
                      [[0.0, 1.0, 2.0], [0.0, 1.0]], None)
    },
    **{
        f"base {value!r}": ({**THREE, "base_log_density": value}, FIT,
                            "family document 'base_log_density' must be an array")
        for value in ([0.0, {}, 0.0], None)
    },
    **{
        f"probs {value!r}": ({"omega": 2, "probs": value}, SAMPLE,
                             "distribution document 'probs' must be an array")
        for value in ([0.5, {}], ["0.5", "0.5"], [True, False])
    },
    "vec {}": ({"omega": 2, "probs": [0.5, 0.5], "rep": "mixture", "vec": [0.1, {}]},
               ["transport", "--rho", "doc.json", "--sigma", "doc.json", "--tangent",
                "doc.json", "--which", "plus"],
               "tangent document 'vec' must be an array of numbers"),
    "generator {}": (_run_config(generator=[[-1.0, {}], [1.0, -1.0]]),
                     ["project-simulate", "--config", "doc.json"],
                     "run config 'generator' must be an array of numbers"),
    "kraus 7": ({"kraus": 7, "family": QUBIT_FAMILY, "dt": 0.1, "steps": 2,
                 "initial": {"dim": 2, "re": [[0.8, 0.0], [0.0, 0.2]]}},
                ["project-simulate", "--config", "doc.json"],
                "run config 'kraus' must be a list of matrix documents"),
    **{
        f"{key} {value!r}": ({"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], key: value},
                             ["kubo-expand", "--h0", "doc.json", "--v", "doc.json"],
                             f"matrix document {key!r} must be an array of numbers")
        for key, value in (("im", {}), ("im", None), ("re", "x"), ("re", None))
    },
    "quantum features 5": ({**QUBIT_FAMILY, "features": 5}, FIT_QUANTUM,
                           "quantum family document 'features' must be a list of "
                           "matrix documents"),
    "H0 null": ({**QUBIT_FAMILY, "H0": None}, FIT_QUANTUM,
                "quantum family document 'H0' must be a JSON object, got NoneType"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_two_naming_the_field(workdir, capsys, case):
    doc, argv, names = BAD_INPUTS[case]
    (workdir / "doc.json").write_text(json.dumps(doc))
    argv = [str(workdir / a) if a == "doc.json" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert names in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row, names", [
    ([0.0, {}, 2.0], "estimators file must be an array of numbers"),
    ([0.0, float("nan"), 2.0], "estimators must be finite"),
])
def test_bad_estimators_file_exits_two_naming_it(workdir, capsys, row, names):
    family = write(workdir / "f.json", THREE)
    (workdir / "e.json").write_text(json.dumps([row]))
    argv = ["cramer-rao", "--family", family, "--theta", "1",
            "--estimators", str(workdir / "e.json")]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"input error: {names}\n"
