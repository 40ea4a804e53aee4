"""Command-line front door.

Thin adapters only: every subcommand parses files, calls one library
operation, and serializes the result; no numerics live here.  JSON goes in,
JSON or CSV comes out, with all numbers at 17 significant digits.

Exit codes: 0 on success; 1 on a domain failure of valid input (infeasible
moment target, biased estimator, boundary hit); 2 on input, parse, or usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize as ser
from .classical.connections import geodesic
from .classical.distributions import entropy
from .classical.estimation import (
    ParametricFamily,
    cramer_rao_report,
    maxent_fit,
    sample,
)
from .classical.families import mixture_coords
from .errors import InfoGeoError
from .kubomori import PerturbationProblem, expand_log_z
from .maps import FISHER, METRIC_KERNELS, run_contraction_audit
from .projection import HamiltonianStep, MarkovGenerator, roll
from .quantum.families import (
    mean_parametrized_path,
    mean_path_derivative,
    quantum_maxent_fit,
    quantum_mixture_coords,
)
from .quantum.metrics import quantum_cramer_rao
from .quantum.states import mixture_entropy_bound, von_neumann_entropy

_DEFAULT_FIT_TOL = 1e-10


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from exc


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_fit_classical(args) -> int:
    family = ser.family_from_json(_load(args.family))
    target = _vector(args.means)
    pt = maxent_fit(family, target, tol=args.tol)
    doc = {
        "xi": pt.xi.tolist(),
        "means": mixture_coords(pt).tolist(),
        "psi": pt.psi,
        "entropy": entropy(pt.probs()),
        "tolerance": args.tol,
        "tolerance_overridden": args.tol != _DEFAULT_FIT_TOL,
    }
    _write(ser.dump_json(doc), args.out)
    return 0


def _cmd_fit_quantum(args) -> int:
    fam = ser.qfamily_from_json(_load(args.family))
    fit = quantum_maxent_fit(fam, _vector(args.means), tol=args.tol)
    doc = {
        "xi": fit.xi.tolist(),
        "means": quantum_mixture_coords(fam, fit.xi).tolist(),
        "log_z": fit.log_z,
        "entropy": von_neumann_entropy(fit.state),
        "tolerance": args.tol,
        "tolerance_overridden": args.tol != _DEFAULT_FIT_TOL,
    }
    _write(ser.dump_json(doc), args.out)
    return 0


def _cmd_cramer_rao(args) -> int:
    efam = ser.family_from_json(_load(args.family))
    fam = ParametricFamily.from_exponential(efam, args.parametrization)
    theta = _vector(args.theta)
    if args.estimators is not None:
        estimators = np.asarray(_load(args.estimators), dtype=float)
    else:
        estimators = efam.features
    rep = cramer_rao_report(fam, theta, estimators)
    _write(ser.dump_json(ser.cramer_rao_report_to_json(rep)), args.out)
    return 0


def _cmd_quantum_cramer_rao(args) -> int:
    fam = ser.qfamily_from_json(_load(args.family))
    path = mean_parametrized_path(fam)
    drho = mean_path_derivative(fam, args.mean)
    if args.observable is not None:
        observable = ser.matrix_from_json(_load(args.observable))
    else:
        observable = fam.features[0]
    rep = quantum_cramer_rao(path, args.mean, observable, drho=drho)
    doc = {
        "variance": rep.variance,
        "bkm_variance": rep.bkm_variance,
        "info": rep.info,
        "bound": rep.bound,
        "slack": rep.slack,
        "bkm_pairing_slack": rep.bkm_pairing_slack,
    }
    _write(ser.dump_json(doc), args.out)
    return 0


def _cmd_geodesic(args) -> int:
    family = ser.family_from_json(_load(args.family))
    pt0 = family.point(_vector(args.xi0))
    path = geodesic(
        pt0, _vector(args.v0), args.alpha, args.t_max, dt=args.dt
    )
    _write(ser.geodesic_to_csv(path), args.out)
    if path.truncated:
        sys.stderr.write("warning: trajectory left the coordinate box early\n")
    return 0


def _cmd_transport(args) -> int:
    from .classical.distributions import parallel_transport

    rho = ser.distribution_from_json(_load(args.rho))
    sigma = ser.distribution_from_json(_load(args.sigma))
    t = ser.tangent_from_json(_load(args.tangent))
    out = parallel_transport(rho, sigma, t, args.which)
    _write(ser.dump_json(ser.tangent_to_json(out)), args.out)
    return 0


def _cmd_audit(args) -> int:
    rep = run_contraction_audit(args.metric, args.dim, args.trials, args.seed)
    _write(ser.dump_json(ser.contraction_report_to_json(rep)), args.out)
    return 0


def _cmd_kubo_expand(args) -> int:
    h0 = ser.matrix_from_json(_load(args.h0))
    v = ser.matrix_from_json(_load(args.v))
    rep = expand_log_z(PerturbationProblem(h0, v, max_order=args.max_order))
    if args.csv:
        _write(ser.series_report_to_csv(rep), args.out)
    else:
        _write(ser.dump_json(ser.series_report_to_json(rep)), args.out)
    return 0


def _cmd_project_simulate(args) -> int:
    cfg = _load(args.config)
    for key in ("family", "dt", "steps", "initial"):
        if key not in cfg:
            raise ValueError(f"run config is missing {key!r}")
    if "generator" in cfg:
        dynamics = MarkovGenerator(np.asarray(cfg["generator"], dtype=float))
        family = ser.family_from_json(cfg["family"])
        initial = ser.distribution_from_json(cfg["initial"])
    elif "hamiltonian" in cfg:
        dynamics = HamiltonianStep(ser.matrix_from_json(cfg["hamiltonian"]))
        family = ser.qfamily_from_json(cfg["family"])
        initial = ser.density_from_json(cfg["initial"])
    elif "kraus" in cfg:
        dynamics = ser.kraus_from_json(cfg["kraus"])
        family = ser.qfamily_from_json(cfg["family"])
        initial = ser.density_from_json(cfg["initial"])
    else:
        raise ValueError(
            "run config needs one of 'generator', 'hamiltonian', 'kraus'"
        )
    run = roll(initial, dynamics, family, float(cfg["dt"]), int(cfg["steps"]))
    _write(ser.run_to_csv(run), args.out)
    if run.truncated:
        sys.stderr.write(f"warning: run truncated: {run.diagnostic}\n")
    return 0


def _cmd_entropy_bound(args) -> int:
    rho = ser.density_from_json(_load(args.rho), allow_boundary=True)
    sigma = ser.density_from_json(_load(args.sigma), allow_boundary=True)
    rep = mixture_entropy_bound(rho, sigma, args.mix)
    doc = {"lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack}
    _write(ser.dump_json(doc), args.out)
    return 0


def _cmd_sample(args) -> int:
    rho = ser.distribution_from_json(_load(args.dist), allow_boundary=True)
    hist = sample(rho, args.count, args.seed)
    _write(ser.dump_json(hist.tolist()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogeo",
        description="information-geometry engine: fits, bounds, audits, runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-classical", help="max-entropy fit to feature means")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--means", required=True, help="comma-separated target means")
    p.add_argument("--tol", type=float, default=_DEFAULT_FIT_TOL)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_fit_classical)

    p = sub.add_parser("fit-quantum", help="quantum max-entropy fit")
    p.add_argument("--family", required=True, help="quantum family JSON file")
    p.add_argument("--means", required=True)
    p.add_argument("--tol", type=float, default=_DEFAULT_FIT_TOL)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_fit_quantum)

    p = sub.add_parser("cramer-rao", help="variance-bound report")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument(
        "--parametrization", choices=["canonical", "mixture"], default="mixture"
    )
    p.add_argument("--estimators", help="JSON file with estimator rows")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_cramer_rao)

    p = sub.add_parser("quantum-cramer-rao", help="quantum variance bounds")
    p.add_argument("--family", required=True, help="one-feature quantum family")
    p.add_argument("--mean", type=float, required=True, help="path parameter")
    p.add_argument("--observable", help="matrix JSON file (default: the feature)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_quantum_cramer_rao)

    p = sub.add_parser("geodesic", help="integrate an alpha-geodesic")
    p.add_argument("--family", required=True)
    p.add_argument("--xi0", required=True)
    p.add_argument("--v0", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument(
        "--dt", type=float, default=1e-3,
        help="spacing of the output samples (default 1e-3); the adaptive "
        "Dormand-Prince 5(4) steps at relative tolerance 1e-10 are chosen "
        "separately and the samples come from its dense output",
    )
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("transport", help="flat transport of a tangent")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tangent", required=True)
    p.add_argument("--which", choices=["plus", "minus"], required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser("audit-monotonicity", help="metric contraction sweep")
    p.add_argument("--metric", choices=[FISHER, *METRIC_KERNELS], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("kubo-expand", help="perturbation series for log Z")
    p.add_argument("--h0", required=True, help="matrix JSON file")
    p.add_argument("--v", required=True, help="matrix JSON file")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--csv", action="store_true", help="emit CSV columns")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kubo_expand)

    p = sub.add_parser("project-simulate", help="rolling max-entropy projection")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_project_simulate)

    p = sub.add_parser("entropy-bound", help="mixture entropy inequality")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--lambda", dest="mix", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_entropy_bound)

    p = sub.add_parser("sample", help="seeded histogram of i.i.d. draws")
    p.add_argument("--dist", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except InfoGeoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
