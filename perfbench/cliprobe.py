"""CLI and serialize layers: one seeded argv per subcommand.

The traced run measures the command-line front door here:

* ``cli.inprocess_s``: the whole argv list through ``infogeo.cli.run`` in
  this warm process (median of a few repetitions);
* ``serialize.load.self_s`` / ``serialize.dump.self_s``: the readers and
  writers of ``infogeo.serialize`` during one traced pass of that list;
* ``cli.import_s``: median wall time of ``import infogeo.cli`` in a fresh
  interpreter minus that of a bare interpreter;
* ``cli.modules_loaded``: ``len(sys.modules)`` after that import.

Every argv is also run once as its own process through ``infogeo.cli.main``
(``python -m infogeo.cli`` would exit 0 silently: the module has no
``__main__`` guard).  That process must exit 0 and print exactly the bytes
the in-process run printed.  Processes run one at a time and are waited for.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import infogeo.cli as cli

import spans

CLI_MAIN = "import sys; from infogeo.cli import main; sys.argv[0] = 'infogeo'; main()"
IMPORT_CLI = "import sys, infogeo.cli; print(len(sys.modules))"
IMPORT_REPEATS = 5
INPROCESS_REPEATS = 3


def _hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T) / np.sqrt(2 * d)


def _matrix_doc(m):
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _vec(x):
    # passed as --flag=value: a leading minus would otherwise read as a flag
    return ",".join(repr(float(v)) for v in x)


def _gibbs(h):
    w, u = np.linalg.eigh(h)
    p = np.exp(-(w - w.min()))
    p /= p.sum()
    return (u * p) @ u.conj().T


def write_inputs(seed: int, folder: str) -> list[list[str]]:
    """Write small seeded input files and return one argv per subcommand."""
    os.makedirs(folder, exist_ok=True)
    rng = np.random.default_rng([seed, 7])

    def put(name, doc):
        path = os.path.join(folder, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    omega = 6
    feats = rng.normal(size=(2, omega))
    fam = put("family.json", {"omega": omega, "features": feats.tolist()})
    s = -rng.normal(scale=0.5, size=2) @ feats
    p = np.exp(s - s.max())
    means = feats @ (p / p.sum())
    h0 = _hermitian(rng, 3)
    qfeats = [_hermitian(rng, 3) for _ in range(2)]
    qfam = put("qfamily.json", {"dim": 3, "H0": _matrix_doc(h0),
                                "features": [_matrix_doc(f) for f in qfeats]})
    xi = rng.normal(scale=0.5, size=2)
    rho = _gibbs(h0 + xi[0] * qfeats[0] + xi[1] * qfeats[1])
    qmeans = [np.trace(rho @ f).real for f in qfeats]
    qfam1 = put("qfamily1.json", {"dim": 3, "H0": _matrix_doc(h0),
                                  "features": [_matrix_doc(qfeats[0])]})
    mean1 = np.trace(_gibbs(h0 + 0.3 * qfeats[0]) @ qfeats[0]).real
    dists = [rng.dirichlet(np.full(omega, 4.0)) for _ in range(3)]
    rho_c, sigma_c, initial = (put(f"dist{k}.json", {"omega": omega, "probs": d.tolist()})
                               for k, d in enumerate(dists))
    v = rng.normal(size=omega)
    tangent = put("tangent.json", {"rep": "mixture", "vec": (v - v.mean()).tolist()})
    v_pert = _hermitian(rng, 3)
    v_pert *= 0.3 / np.linalg.norm(v_pert, 2)
    h0_file = put("h0.json", _matrix_doc(_hermitian(rng, 3, scale=2.0)))
    v_file = put("v.json", _matrix_doc(v_pert))
    rates = rng.random((omega, omega))
    rates = 0.5 * (rates + rates.T)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    config = put("run.json", {
        "family": {"omega": omega, "features": feats.tolist()},
        "generator": rates.tolist(), "dt": 0.05, "steps": 10,
        "initial": {"omega": omega, "probs": dists[2].tolist()}})
    rho_q = put("rho.json", _matrix_doc(_gibbs(_hermitian(rng, 3, 2.0))))
    sigma_q = put("sigma.json", _matrix_doc(_gibbs(_hermitian(rng, 3, 2.0))))
    alpha = ("-1", "0", "0.5")[int(rng.integers(3))]
    return [
        ["fit-classical", "--family", fam, "--means=" + _vec(means)],
        ["fit-quantum", "--family", qfam, "--means=" + _vec(qmeans)],
        ["cramer-rao", "--family", fam, "--theta=" + _vec(means)],
        ["quantum-cramer-rao", "--family", qfam1, "--mean=" + repr(float(mean1))],
        ["geodesic", "--family", fam, "--xi0=" + _vec(rng.normal(scale=0.3, size=2)),
         "--v0=" + _vec(rng.normal(scale=0.3, size=2)), "--alpha=" + alpha,
         "--t-max", "0.2"],
        ["transport", "--rho", rho_c, "--sigma", sigma_c, "--tangent", tangent,
         "--which", ("plus", "minus")[int(rng.integers(2))]],
        ["audit-monotonicity", "--metric", ("fisher", "gns", "bkm")[int(rng.integers(3))],
         "--dim", "4", "--trials", "20", "--seed", str(int(rng.integers(1 << 31)))],
        ["kubo-expand", "--h0", h0_file, "--v", v_file],
        ["project-simulate", "--config", config],
        ["entropy-bound", "--rho", rho_q, "--sigma", sigma_q, "--lambda", "0.3"],
        ["sample", "--dist", initial, "--count", "1000",
         "--seed", str(int(rng.integers(1 << 31)))],
    ]


def _run_inprocess(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _child(code, args, env, cwd):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, timeout=120, check=False)
    return time.perf_counter() - start, proc


def probe(seed: int, root: str, folder: str):
    """Return (metrics, attempted, failures) of the CLI probe."""
    argvs = write_inputs(seed, folder)
    failures = []
    expected = []
    for argv in argvs:
        code, text = _run_inprocess(argv)
        expected.append(text)
        if code != 0 or not text:
            failures.append(f"in-process {argv[0]}: exit {code}, {len(text)} bytes")

    walls = []
    for _ in range(INPROCESS_REPEATS):
        start = time.perf_counter()
        for argv in argvs:
            _run_inprocess(argv)
        walls.append(time.perf_counter() - start)

    tracer = spans.Tracer(spans.serialize_layers())
    with tracer.installed():
        for argv in argvs:
            _run_inprocess(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for argv, text in zip(argvs, expected):
        _, proc = _child(CLI_MAIN, argv, env, root)
        if proc.returncode != 0 or not proc.stdout or proc.stdout != text.encode("utf-8"):
            failures.append(f"process {argv[0]}: exit {proc.returncode}, "
                            f"{len(proc.stdout)} bytes, matches in-process: "
                            f"{proc.stdout == text.encode('utf-8')}")

    bare, imported, modules = [], [], set()
    for _ in range(IMPORT_REPEATS):
        bare.append(_child("pass", [], env, root)[0])
        wall, proc = _child(IMPORT_CLI, [], env, root)
        imported.append(wall)
        if proc.returncode != 0:
            failures.append(f"import infogeo.cli exited {proc.returncode}")
        else:
            modules.add(int(proc.stdout))
    if len(modules) > 1:
        failures.append(f"module count varies between interpreters: {sorted(modules)}")

    metrics = {
        "cli.import_s": statistics.median(imported) - statistics.median(bare),
        "cli.modules_loaded": min(modules) if modules else 0,
        "cli.inprocess_s": statistics.median(walls),
        "serialize.load.self_s": tracer.self_s["serialize.load"],
        "serialize.dump.self_s": tracer.self_s["serialize.dump"],
    }
    return metrics, len(argvs), failures
