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
from infogeo.cli import run
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
