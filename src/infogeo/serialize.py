"""JSON and CSV wire formats.

All numeric output is emitted with 17 significant digits through a
locale-independent formatter, so reports are byte-reproducible and numbers
round-trip exactly through text.  Matrices travel as

    {"dim": n, "re": [[...]], "im": [[...]]}

with the imaginary block optional (defaults to zero); families, points and
distributions as plain JSON objects documented on their readers below.
"""

from __future__ import annotations

import numpy as np

from .classical.connections import GeodesicPath
from .classical.distributions import ClassicalTangent, FiniteDistribution, entropy
from .classical.families import CanonicalPoint, ExponentialFamily, mixture_coords
from .kubomori import SERIES_CONVENTION, SeriesReport
from .maps import ContractionReport
from .projection import ProjectionRun
from .quantum.families import QuantumExponentialFamily
from .quantum.states import DensityMatrix
from .spectral import _count, _known, _numbers, _real

_NEEDED = object()  # the default of a field that must be present


def format_float(x: float) -> str:
    """17-significant-digit, locale-independent decimal form."""
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {float(x)!r}")
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """Serialize nested dicts/lists/scalars with fixed float formatting."""
    out = []
    _emit(obj, out)
    return "".join(out) + "\n"


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _emit(str(k), out)
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _document(doc, what: str) -> dict:
    """``doc`` if it is a JSON object; else a ValueError naming ``what``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc, key: str, what: str, read=None, *args, need=None, default=_NEEDED):
    """``doc[key]`` through ``read(value, "{what} '{key}'", *args)`` if given, or
    ``default`` if given and the key is absent; a ``doc`` that is not a JSON
    object, or a missing key, raises ValueError ("{what} needs {need}")."""
    if key not in _document(doc, what):
        if default is not _NEEDED:
            return default
        raise ValueError(f"{what} needs {need or repr(key)}")
    return doc[key] if read is None else read(doc[key], f"{what} {key!r}", *args)


def _csv(header, rows) -> str:
    """A header line, then one line of ``format_float`` values per row."""
    lines = [",".join(header)]
    lines += (",".join(format_float(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrices and states


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    doc = {"dim": m.shape[0], "re": m.real.tolist()}
    if np.abs(m.imag).max() > 0:
        doc["im"] = m.imag.tolist()
    return doc


def matrix_from_json(doc: dict) -> np.ndarray:
    return _matrix(doc, "matrix document")


def _matrix(doc, what: str) -> np.ndarray:
    """The matrix document ``doc``, named ``what`` in errors."""
    re = _field(doc, "re", what, _numbers, need="an 're' block")
    im = _field(doc, "im", what, _numbers, default=np.zeros_like(re))
    if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise ValueError(f"matrix blocks must be square and matching: {re.shape}")
    dim = _field(doc, "dim", what, _count, default=re.shape[0])
    if dim != re.shape[0]:
        raise ValueError(f"declared dim {dim} != block size {re.shape[0]}")
    return re + 1j * im


def _matrices(docs, what: str) -> list:
    """The matrices of ``docs``, a JSON list of matrix documents."""
    if not isinstance(docs, list):
        raise ValueError(f"{what} must be a list of matrix documents")
    return [_matrix(d, f"{what}[{k}]") for k, d in enumerate(docs)]


def density_from_json(doc: dict, allow_boundary: bool = False) -> DensityMatrix:
    """Read a density matrix; an optional 'trace_tol' permits renormalizing
    a trace that drifted by at most that much in transit."""
    m = matrix_from_json(doc)
    tol = _field(doc, "trace_tol", "density document", _real, "nonnegative",
                 default=0.0)
    tr = float(np.trace(m).real)
    if tol > 0.0 and abs(tr - 1.0) <= tol and tr > 0:
        m = m / tr
    return DensityMatrix(m, allow_boundary=allow_boundary)


# ---------------------------------------------------------------------------
# classical objects


def distribution_to_json(rho: FiniteDistribution) -> dict:
    return {"omega": rho.size, "probs": rho.probs.tolist()}


def distribution_from_json(doc: dict, allow_boundary: bool = False) -> FiniteDistribution:
    what = "distribution document"
    p = _field(doc, "probs", what, _numbers, need="a 'probs' vector")
    omega = _field(doc, "omega", what, _count, default=p.size)
    if omega != p.size:
        raise ValueError(f"declared omega {omega} != vector size {p.size}")
    return FiniteDistribution(p, allow_boundary=allow_boundary)


def family_to_json(family: ExponentialFamily, xi=None) -> dict:
    doc = {
        "omega": family.omega_size,
        "features": family.features.tolist(),
        "base_log_density": family.base_log_density.tolist(),
    }
    if xi is not None:
        doc["xi"] = np.asarray(xi, dtype=float).tolist()
    return doc


def family_from_json(doc: dict) -> ExponentialFamily:
    what = "family document"
    features = _field(doc, "features", what, _numbers, need="a 'features' block")
    base = _field(doc, "base_log_density", what, _numbers, default=None)
    family = ExponentialFamily(features, base)
    omega = _field(doc, "omega", what, _count, default=family.omega_size)
    if omega != family.omega_size:
        raise ValueError(f"declared omega {omega} != feature length {family.omega_size}")
    return family


def point_from_json(doc: dict) -> CanonicalPoint:
    family = family_from_json(doc)
    return CanonicalPoint(family, _field(doc, "xi", "point document", _numbers))


def tangent_to_json(t: ClassicalTangent) -> dict:
    rep = "exponential" if t.rep == "exponential" else "mixture"
    return {"rep": rep, "vec": t.vec.tolist()}


def tangent_from_json(doc: dict) -> ClassicalTangent:
    what, need = "tangent document", "'rep' and 'vec'"
    rep = _known(("mixture", "exponential"), _field(doc, "rep", what, need=need),
                 f"{what} 'rep'")
    return ClassicalTangent(rep, _field(doc, "vec", what, _numbers, need=need))


# ---------------------------------------------------------------------------
# quantum objects


def qfamily_to_json(fam: QuantumExponentialFamily) -> dict:
    return {
        "dim": fam.dim,
        "H0": matrix_to_json(fam.h0),
        "features": [matrix_to_json(f) for f in fam.features],
    }


def qfamily_from_json(doc: dict) -> QuantumExponentialFamily:
    what = "quantum family document"
    feats = _field(doc, "features", what, _matrices, need="a 'features' list")
    if not feats:
        raise ValueError("quantum family document has an empty 'features' list")
    dim = _field(doc, "dim", what, _count, default=feats[0].shape[0])
    h0 = _field(doc, "H0", what, _matrix, default=np.zeros((dim, dim)))
    if h0.shape[0] != dim:
        raise ValueError(f"declared dim {dim} != H0 size {h0.shape[0]}")
    return QuantumExponentialFamily(h0, feats)


# ---------------------------------------------------------------------------
# reports


def cramer_rao_report_to_json(rep) -> dict:
    return {
        "V": rep.covariance.tolist(),
        "G": rep.information.tolist(),
        "gap": rep.gap.tolist(),
        "gap_min_eig": rep.min_gap_eigenvalue,
        "efficiency": rep.efficiency,
    }


def contraction_report_to_json(rep: ContractionReport, bins: int = 20) -> dict:
    counts, edges = rep.histogram(bins=bins)
    return {
        "metric": rep.metric,
        "trials": rep.trials,
        "skipped": rep.skipped,
        "worst_violation": rep.worst_violation,
        "ratios_histogram": counts.tolist(),
        "histogram_edges": edges.tolist(),
    }


def series_report_to_json(rep: SeriesReport) -> dict:
    return {
        "exact": rep.exact_log_z,
        "terms": rep.terms.tolist(),
        "partials": rep.partial_sums.tolist(),
        "errors": rep.truncation_errors.tolist(),
        "diverged": rep.diverged,
        "convention": SERIES_CONVENTION,
    }


def series_report_to_csv(rep: SeriesReport) -> str:
    rows = zip(
        range(len(rep.terms)), rep.terms, rep.partial_sums, rep.truncation_errors
    )
    return _csv(["order", "term", "partial_sum", "truncation_error"], rows)


# ---------------------------------------------------------------------------
# trajectories


def _trajectory_header(n: int, *tail: str) -> list[str]:
    coords = [f"{name}_{j + 1}" for name in ("xi", "eta") for j in range(n)]
    return ["t", *coords, *tail]


def geodesic_to_csv(path: GeodesicPath) -> str:
    rows = (
        [t, *pt.xi, *mixture_coords(pt), pt.psi, entropy(pt.probs())]
        for t, pt in zip(path.times, path.points())
    )
    header = _trajectory_header(path.family.n_features, "psi", "entropy")
    return _csv(header, rows)


def run_to_csv(run: ProjectionRun) -> str:
    rows = (
        [t, *xi, *eta, s, defect]
        for t, xi, eta, s, defect in zip(
            run.times, run.xis, run.etas, run.entropies, run.defects
        )
    )
    header = _trajectory_header(run.xis.shape[1], "entropy", "projection_defect")
    return _csv(header, rows)
