"""Command-line front door.

Thin adapters only: every subcommand parses files, calls one library
operation, and returns the serialized result; no numerics live here.
:func:`run` writes that document to stdout or to ``--out``, an option
every subcommand gets from :func:`build_parser`.  JSON goes in, JSON or
CSV comes out, with all numbers at 17 significant digits.

Exit codes: 0 on success; 1 on a domain failure of valid input (infeasible
moment target, biased estimator, boundary hit); 2 on input, parse, or usage
errors, including floating-point overflow or invalid arithmetic on input
values.
"""

from __future__ import annotations

import argparse
import functools
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
from .maps import FISHER, METRIC_KERNELS, QuantumCPUnitalMap, run_contraction_audit
from .projection import HamiltonianStep, MarkovGenerator, roll
from .quantum.families import (
    mean_parametrized_path,
    mean_path_derivative,
    quantum_maxent_fit,
    quantum_mixture_coords,
)
from .quantum.metrics import quantum_cramer_rao
from .quantum.states import mixture_entropy_bound, von_neumann_entropy
from .spectral import _count, _numbers, _real

_DEFAULT_FIT_TOL = 1e-10


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from exc


def _cmd_fit_classical(args) -> str:
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
    return ser.dump_json(doc)


def _cmd_fit_quantum(args) -> str:
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
    return ser.dump_json(doc)


def _cmd_cramer_rao(args) -> str:
    efam = ser.family_from_json(_load(args.family))
    fam = ParametricFamily.from_exponential(efam, args.parametrization)
    theta = _vector(args.theta)
    if args.estimators is not None:
        estimators = _numbers(_load(args.estimators), "estimators file")
    else:
        estimators = efam.features
    rep = cramer_rao_report(fam, theta, estimators)
    return ser.dump_json(ser.cramer_rao_report_to_json(rep))


def _cmd_quantum_cramer_rao(args) -> str:
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
    return ser.dump_json(doc)


def _cmd_geodesic(args) -> str:
    family = ser.family_from_json(_load(args.family))
    pt0 = family.point(_vector(args.xi0))
    path = geodesic(pt0, _vector(args.v0), args.alpha, args.t_max, dt=args.dt)
    text = ser.geodesic_to_csv(path)
    if path.truncated:
        sys.stderr.write("warning: trajectory left the coordinate box early\n")
    return text


def _cmd_transport(args) -> str:
    from .classical.distributions import parallel_transport

    rho = ser.distribution_from_json(_load(args.rho))
    sigma = ser.distribution_from_json(_load(args.sigma))
    t = ser.tangent_from_json(_load(args.tangent))
    out = parallel_transport(rho, sigma, t, args.which)
    return ser.dump_json(ser.tangent_to_json(out))


def _cmd_audit(args) -> str:
    rep = run_contraction_audit(args.metric, args.dim, args.trials, args.seed)
    return ser.dump_json(ser.contraction_report_to_json(rep))


def _cmd_kubo_expand(args) -> str:
    h0 = ser.matrix_from_json(_load(args.h0))
    v = ser.matrix_from_json(_load(args.v))
    rep = expand_log_z(PerturbationProblem(h0, v, max_order=args.max_order))
    if args.csv:
        return ser.series_report_to_csv(rep)
    return ser.dump_json(ser.series_report_to_json(rep))


def _cmd_project_simulate(args) -> str:
    cfg, what = _load(args.config), "run config"
    family = ser._field(cfg, "family", what, ser._document)
    dt = ser._field(cfg, "dt", what, _real, "positive")
    steps = ser._field(cfg, "steps", what, _count, 0)
    initial = ser._field(cfg, "initial", what, ser._document)
    if "generator" in cfg:
        dynamics = MarkovGenerator(ser._field(cfg, "generator", what, _numbers))
        family = ser.family_from_json(family)
        initial = ser.distribution_from_json(initial)
    elif "hamiltonian" in cfg:
        dynamics = HamiltonianStep(ser._field(cfg, "hamiltonian", what, ser._matrix))
        family = ser.qfamily_from_json(family)
        initial = ser.density_from_json(initial)
    elif "kraus" in cfg:
        dynamics = QuantumCPUnitalMap(ser._field(cfg, "kraus", what, ser._matrices))
        family = ser.qfamily_from_json(family)
        initial = ser.density_from_json(initial)
    else:
        raise ValueError(
            "run config needs one of 'generator', 'hamiltonian', 'kraus'"
        )
    run = roll(initial, dynamics, family, dt, steps)
    text = ser.run_to_csv(run)
    if run.truncated:
        sys.stderr.write(f"warning: run truncated: {run.diagnostic}\n")
    return text


def _cmd_entropy_bound(args) -> str:
    rho = ser.density_from_json(_load(args.rho), allow_boundary=True)
    sigma = ser.density_from_json(_load(args.sigma), allow_boundary=True)
    rep = mixture_entropy_bound(rho, sigma, args.mix)
    doc = {"lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack}
    return ser.dump_json(doc)


def _cmd_sample(args) -> str:
    rho = ser.distribution_from_json(_load(args.dist), allow_boundary=True)
    hist = sample(rho, args.count, args.seed)
    return ser.dump_json(hist.tolist())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogeo",
        description="information-geometry engine: fits, bounds, audits, runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    p = command("fit-classical", _cmd_fit_classical, "max-entropy fit to feature means")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--means", required=True, help="comma-separated target means")
    p.add_argument("--tol", type=float, default=_DEFAULT_FIT_TOL)

    p = command("fit-quantum", _cmd_fit_quantum, "quantum max-entropy fit")
    p.add_argument("--family", required=True, help="quantum family JSON file")
    p.add_argument("--means", required=True)
    p.add_argument("--tol", type=float, default=_DEFAULT_FIT_TOL)

    p = command("cramer-rao", _cmd_cramer_rao, "variance-bound report")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument(
        "--parametrization", choices=["canonical", "mixture"], default="mixture"
    )
    p.add_argument("--estimators", help="JSON file with estimator rows")

    p = command(
        "quantum-cramer-rao", _cmd_quantum_cramer_rao, "quantum variance bounds"
    )
    p.add_argument("--family", required=True, help="one-feature quantum family")
    p.add_argument("--mean", type=float, required=True, help="path parameter")
    p.add_argument("--observable", help="matrix JSON file (default: the feature)")

    p = command("geodesic", _cmd_geodesic, "integrate an alpha-geodesic")
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

    p = command("transport", _cmd_transport, "flat transport of a tangent")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tangent", required=True)
    p.add_argument("--which", choices=["plus", "minus"], required=True)

    p = command("audit-monotonicity", _cmd_audit, "metric contraction sweep")
    p.add_argument("--metric", choices=[FISHER, *METRIC_KERNELS], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("kubo-expand", _cmd_kubo_expand, "perturbation series for log Z")
    p.add_argument("--h0", required=True, help="matrix JSON file")
    p.add_argument("--v", required=True, help="matrix JSON file")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--csv", action="store_true", help="emit CSV columns")

    p = command(
        "project-simulate", _cmd_project_simulate, "rolling max-entropy projection"
    )
    p.add_argument("--config", required=True, help="run config JSON file")

    p = command("entropy-bound", _cmd_entropy_bound, "mixture entropy inequality")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--lambda", dest="mix", type=float, required=True)

    p = command("sample", _cmd_sample, "seeded histogram of i.i.d. draws")
    p.add_argument("--dist", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    # options every subcommand shares go last, after its own
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes milliseconds,
    most of an in-process run, and parsing leaves it unchanged."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with np.errstate(all="raise", under="ignore"):
            text = args.fn(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except InfoGeoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            FloatingPointError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
