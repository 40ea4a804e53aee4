"""The benchmark's workloads: seeded task streams, program calls and oracles.

A workload is a fixed *cycle* of task specs (sizes, metrics, orders) that is
the same for every seed; the seed only draws the values inside each task.
Task ``i`` of cycle ``c`` draws its inputs from ``default_rng([seed, c, i])``,
so every task is new (nothing a cache could reuse) and any run of whole
cycles has the same size mix.

Each workload has three parts:

* ``draw(rng, spec)``: raw numpy inputs, generated outside the timed task;
* ``run(spec, inputs)``: the program calls of one task, and nothing else;
* ``check(spec, inputs, out)``: the oracle, in plain numpy/scipy written
  here, independent of the library code it checks.  It returns a list of
  failures, empty when the task passed.

Program entry points are called through their modules (``connections.
geodesic``, never a name imported from it), so the traced run's rebinding
reaches the calls made here as well as those inside the library.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as oracle_expm

import infogeo.classical.connections as connections
import infogeo.classical.distributions as distributions
import infogeo.classical.estimation as estimation
import infogeo.classical.families as families
import infogeo.kubomori as kubomori
import infogeo.maps as maps
import infogeo.projection as projection
import infogeo.quantum.families as qfamilies
import infogeo.quantum.metrics as qmetrics
import infogeo.quantum.states as qstates

WARMUP_CYCLE = 1 << 30


def task_rng(seed: int, cycle: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle, index])


# ---------------------------------------------------------------------------
# oracle helpers (numpy only)


def _probs(features, base, xi):
    s = base - xi @ features
    w = np.exp(s - s.max())
    return w / w.sum()


def _random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T) / np.sqrt(2 * d)


def _gibbs(h):
    """exp(-h)/Tr exp(-h) and log Tr exp(-h) through scipy's expm."""
    shift = np.linalg.eigvalsh(h).min()
    e = oracle_expm(-(h - shift * np.eye(h.shape[0])))
    z = np.trace(e).real
    return e / z, float(np.log(z) - shift)


def _qmeans(rho, feats):
    return np.array([np.trace(rho @ f).real for f in feats])


# Moment residuals are checked against the solver's 1e-10 tolerance; the
# oracle's own summation may round differently by ~1e-14, so it allows that.
FIT_RESIDUAL = 1e-10 + 1e-13


def _within(failures, label, value, limit):
    if not value <= limit:
        failures.append(f"{label} {value:.3e} > {limit:.0e}")


# ---------------------------------------------------------------------------
# classical-geometry


class ClassicalGeometry:
    """Geodesic, fit back, Cramer-Rao, estimation and a Markov roll."""

    name = "classical-geometry"
    cycle = [("simplex", omega, alpha)
             for omega in (4, 8, 16) for alpha in (-1.0, 0.0, 0.5)] + [
        ("features", 64, 0.5), ("features", 128, -1.0), ("features", 256, 0.5)]
    trace_cycles = 1
    T_MAX, DT = 1.0, 0.01
    SAMPLE_DRAWS = 20000
    ROLL_OMEGA, ROLL_STEPS, ROLL_DT = 16, 50, 0.05

    @staticmethod
    def spec_label(spec):
        kind, omega, alpha = spec
        return f"{kind}:omega={omega}:alpha={alpha:g}"

    def draw(self, rng, spec):
        kind, omega, _ = spec
        n = omega - 1 if kind == "simplex" else 3
        rates = rng.random((self.ROLL_OMEGA, self.ROLL_OMEGA))
        rates = 0.5 * (rates + rates.T)
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=0))
        return {
            "features": None if kind == "simplex" else rng.normal(size=(n, omega)),
            "xi0": rng.normal(scale=0.3, size=n),
            "v0": rng.normal(scale=0.4, size=n) / np.sqrt(n),
            "sample_seed": int(rng.integers(1 << 31)),
            "roll_features": rng.normal(size=(4, self.ROLL_OMEGA)),
            "roll_rates": rates,
            "roll_initial": rng.dirichlet(np.full(self.ROLL_OMEGA, 5.0)),
        }

    def run(self, spec, inp):
        kind, omega, alpha = spec
        if kind == "simplex":
            fam = families.full_simplex_family(omega)
        else:
            fam = families.ExponentialFamily(inp["features"])
        path = connections.geodesic(
            families.CanonicalPoint(fam, inp["xi0"]), inp["v0"], alpha,
            self.T_MAX, dt=self.DT)
        eta_end = families.mixture_coords(families.CanonicalPoint(fam, path.xis[-1]))
        fit = estimation.maxent_fit(fam, eta_end)
        param = estimation.ParametricFamily.from_exponential(
            fam, estimation.MIXTURE_COORDS)
        cr = estimation.cramer_rao_report(param, eta_end, fam.features)
        hist = estimation.sample(fit.distribution(), self.SAMPLE_DRAWS,
                                 inp["sample_seed"])
        est = estimation.estimate_from_data(fam, hist)
        roll_fam = families.ExponentialFamily(inp["roll_features"])
        rolled = projection.roll(
            distributions.FiniteDistribution(inp["roll_initial"]),
            projection.MarkovGenerator(inp["roll_rates"]), roll_fam,
            self.ROLL_DT, self.ROLL_STEPS)
        return {"family": fam, "path": path, "eta_end": eta_end, "fit": fit,
                "cr": cr, "hist": hist, "est": est, "roll": rolled}

    def check(self, spec, inp, out):
        alpha = spec[2]
        fail = []
        f, b = out["family"].features, out["family"].base_log_density
        path = out["path"]
        steps = int(round(self.T_MAX / self.DT))
        if path.truncated or len(path.xis) != steps + 1:
            return [f"geodesic truncated after {len(path.xis)} samples"]
        probs = np.array([_probs(f, b, xi) for xi in path.xis])
        t = path.times
        if alpha == -1.0:
            eta = probs @ f.T
            line = eta[0] + np.outer(t / t[-1], eta[-1] - eta[0])
            _within(fail, "alpha=-1 deviation from an affine eta path",
                    float(np.abs(eta - line).max()), 1e-6)
        elif alpha == 0.0:
            r = np.sqrt(probs)
            e1 = r[0] / np.linalg.norm(r[0])
            e2 = r[-1] - (r[-1] @ e1) * e1
            e2 /= np.linalg.norm(e2)
            plane = np.outer(r @ e1, e1) + np.outer(r @ e2, e2)
            _within(fail, "alpha=0 distance from the great-circle plane",
                    float(np.abs(r - plane).max()), 1e-5)
            angle = np.arccos(np.clip(r @ e1, -1.0, 1.0))
            _within(fail, "alpha=0 angle nonlinearity in t",
                    float(np.abs(angle - t / t[-1] * angle[-1]).max()), 1e-5)
        else:
            # geodesic equation xi'' = (1 - alpha)/2 V^-1 T(v, v), with the
            # velocity derivative taken by fourth-order central differences
            v = path.velocities
            worst = 0.0
            for k in range(2, len(t) - 2, 12):
                dv = (v[k - 2] - 8 * v[k - 1] + 8 * v[k + 1] - v[k + 2]) / (12 * self.DT)
                p = probs[k]
                c = f - (f @ p)[:, None]
                cov = (c * p) @ c.T
                tvv = (c * p) @ ((v[k] @ c) ** 2)
                acc = 0.5 * (1.0 - alpha) * np.linalg.solve(cov, tvv)
                worst = max(worst, float(np.abs(dv - acc).max()
                                         / (1.0 + np.abs(acc).max())))
            _within(fail, f"alpha={alpha:g} geodesic equation residual", worst, 1e-6)
        fit = out["fit"]
        _within(fail, "maxent fit residual",
                float(np.abs(f @ _probs(f, b, fit.xi) - out["eta_end"]).max()), FIT_RESIDUAL)
        _within(fail, "maxent fit distance from the geodesic end point",
                float(np.abs(fit.xi - path.xis[-1]).max()), 1e-6)
        gap = out["cr"].gap
        min_eig = float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min())
        _within(fail, "Cramer-Rao gap min eigenvalue below 0", -min_eig, 1e-9)
        hist = out["hist"]
        if hist.sum() != self.SAMPLE_DRAWS:
            fail.append(f"sample drew {hist.sum()} points")
        emp = f @ (hist / hist.sum())
        _within(fail, "estimate moment residual",
                float(np.abs(f @ _probs(f, b, out["est"].xi) - emp).max()), FIT_RESIDUAL)
        rolled = out["roll"]
        if rolled.truncated or rolled.steps_completed != self.ROLL_STEPS:
            fail.append(f"roll truncated: {rolled.diagnostic}")
        else:
            rf = inp["roll_features"]
            moments = np.array([rf @ _probs(rf, 0.0, xi) for xi in rolled.xis])
            _within(fail, "roll projection moment residual",
                    float(np.abs(moments - rolled.etas).max()), FIT_RESIDUAL)
            _within(fail, "roll entropy decrease",
                    float(-np.diff(rolled.entropies).min()), 1e-12)
            _within(fail, "roll projection defect below 0",
                    float(-rolled.defects.min()), 1e-12)
        return fail


# ---------------------------------------------------------------------------
# quantum-audit


class QuantumAudit:
    """Contraction sweeps of 50 trials plus one quantum Cramer-Rao report."""

    name = "quantum-audit"
    cycle = [(metric, 16 if metric == "fisher" else dim) for dim in (3, 4, 8, 32)
             for metric in ("gns", "bkm", "fisher")]
    trace_cycles = 8
    TRIALS = 50

    @staticmethod
    def spec_label(spec):
        return f"{spec[0]}:d={spec[1]}"

    def draw(self, rng, spec):
        d = min(spec[1], 8)
        h0 = _random_hermitian(rng, d)
        feat = _random_hermitian(rng, d)
        xi = float(rng.normal(scale=0.5))
        rho, _ = _gibbs(h0 + xi * feat)
        return {"audit_seed": int(rng.integers(1 << 62)), "h0": h0,
                "feature": feat, "xi": xi, "rho": rho,
                "mean": float(np.trace(rho @ feat).real)}

    def run(self, spec, inp):
        metric, dim = spec
        audit = maps.run_contraction_audit(metric, dim, self.TRIALS, inp["audit_seed"])
        fam = qfamilies.QuantumExponentialFamily(inp["h0"], [inp["feature"]])
        path = qfamilies.mean_parametrized_path(fam)
        drho = qfamilies.mean_path_derivative(fam, inp["mean"])
        cr = qmetrics.quantum_cramer_rao(path, inp["mean"], fam.features[0], drho=drho)
        return {"audit": audit, "cr": cr}

    def check(self, spec, inp, out):
        fail = []
        audit = out["audit"]
        ratios = np.asarray(audit.ratios)
        if audit.trials != self.TRIALS or len(ratios) != audit.trials - audit.skipped:
            fail.append(f"audit kept {len(ratios)} of {audit.trials} trials "
                        f"with {audit.skipped} skipped")
        if len(ratios) == 0 or ratios.min() <= 0.0:
            fail.append("audit ratios missing or not positive")
        else:
            worst = float((ratios - 1.0).max())
            _within(fail, "contraction worst violation", worst, 1e-10)
            if worst != audit.worst_violation:
                fail.append("reported worst violation differs from its ratios")
        cr = out["cr"]
        for kind, slack in cr.slack.items():
            _within(fail, f"quantum Cramer-Rao slack {kind} below 0", -slack, 1e-9)
        _within(fail, "BKM pairing slack", abs(cr.bkm_pairing_slack), 1e-6)
        f = inp["feature"]
        variance = float(np.trace(inp["rho"] @ f @ f).real) - inp["mean"] ** 2
        _within(fail, "variance against the Gibbs oracle",
                abs(cr.variance - variance), 1e-8)
        return fail


# ---------------------------------------------------------------------------
# quantum-series


class QuantumSeries:
    """Kubo-Mori series, derivative check, quantum fit and a quantum roll."""

    name = "quantum-series"
    # 15 tasks: order 5 only from d = 6 up.  The two costliest tasks (order 6
    # at d = 7, 8) then hold the 90th percentile in the middle of the second
    # one; with all 18 (d, order) pairs it fell in the gap below it, and the
    # percentile jumped between runs.
    cycle = [(d, order, "hamiltonian" if (d + order) % 2 else "kraus")
             for d in range(3, 9) for order in ((4, 6) if d < 6 else (4, 5, 6))]
    trace_cycles = 2
    V_NORM = 0.3
    ROLL_STEPS, ROLL_DT, KRAUS_WEIGHT = 50, 0.1, 0.2

    @staticmethod
    def spec_label(spec):
        return f"d={spec[0]}:order={spec[1]}:{spec[2]}"

    def draw(self, rng, spec):
        d, _, dynamics = spec
        h0 = _random_hermitian(rng, d, scale=2.0)
        v = _random_hermitian(rng, d)
        v *= self.V_NORM * rng.uniform(0.5, 1.0) / np.linalg.norm(v, 2)
        feats = [_random_hermitian(rng, d) for _ in range(2)]
        xi = rng.normal(scale=0.5, size=2)
        rho, _ = _gibbs(h0 + xi[0] * feats[0] + xi[1] * feats[1])
        rho0, _ = _gibbs(h0 + _random_hermitian(rng, d))
        inp = {"h0": h0, "v": v, "features": feats, "xi": xi,
               "target": _qmeans(rho, feats), "rho0": rho0}
        if dynamics == "hamiltonian":
            inp["hamiltonian"] = _random_hermitian(rng, d, scale=2.0)
        else:
            g = rng.normal(size=(3 * d, d)) + 1j * rng.normal(size=(3 * d, d))
            q, _ = np.linalg.qr(g)
            w = self.KRAUS_WEIGHT
            inp["kraus"] = [np.sqrt(1.0 - w) * np.eye(d)] + [
                np.sqrt(w) * q[k * d:(k + 1) * d] for k in range(3)]
        return inp

    def run(self, spec, inp):
        _, order, _ = spec
        prob = kubomori.PerturbationProblem(inp["h0"], inp["v"], max_order=order)
        series = kubomori.expand_log_z(prob)
        deriv = kubomori.massieu_derivative_check(prob)
        fam = qfamilies.QuantumExponentialFamily(inp["h0"], inp["features"])
        fit = qfamilies.quantum_maxent_fit(fam, inp["target"])
        if "hamiltonian" in inp:
            dynamics = projection.HamiltonianStep(inp["hamiltonian"])
        else:
            dynamics = maps.QuantumCPUnitalMap(inp["kraus"])
        # no base Hamiltonian, so the projection maximizes the von Neumann
        # entropy itself and every projection defect is nonnegative
        roll_fam = qfamilies.QuantumExponentialFamily(
            np.zeros_like(inp["h0"]), inp["features"])
        rolled = projection.roll(qstates.DensityMatrix(inp["rho0"]), dynamics,
                                 roll_fam, self.ROLL_DT, self.ROLL_STEPS)
        return {"series": series, "deriv": deriv, "fit": fit, "roll": rolled}

    def check(self, spec, inp, out):
        fail = []
        series = out["series"]
        errors = series.truncation_errors
        if series.diverged:
            fail.append("series flagged as diverged")
        if not errors[-1] < errors[1]:
            fail.append(f"last-order error {errors[-1]:.3e} not below "
                        f"first-order error {errors[1]:.3e}")
        _, exact = _gibbs(inp["h0"] + inp["v"])
        _, exact0 = _gibbs(inp["h0"])
        _within(fail, "exact log Z against the expm oracle",
                abs(series.exact_log_z - exact), 1e-10)
        _within(fail, "order-0 term against the expm oracle",
                abs(series.terms[0] - exact0), 1e-10)
        _within(fail, "first-derivative residual", out["deriv"].first, 1e-6)
        _within(fail, "second-derivative residual", out["deriv"].second, 1e-6)
        fit = out["fit"]
        h = inp["h0"] + fit.xi[0] * inp["features"][0] + fit.xi[1] * inp["features"][1]
        rho, _ = _gibbs(h)
        _within(fail, "quantum fit residual",
                float(np.abs(_qmeans(rho, inp["features"]) - inp["target"]).max()), FIT_RESIDUAL)
        rolled = out["roll"]
        if rolled.truncated or rolled.steps_completed != self.ROLL_STEPS:
            fail.append(f"roll truncated: {rolled.diagnostic}")
        else:
            _within(fail, "roll projection defect below 0",
                    float(-rolled.defects.min()), 1e-12)
        return fail


WORKLOADS = {w.name: w for w in (ClassicalGeometry(), QuantumAudit(), QuantumSeries())}
