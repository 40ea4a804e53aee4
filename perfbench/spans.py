"""Spans and exact counters around the public entry points of each layer.

The library has no tracing of its own, so the benchmark wraps functions from
the outside: a traced name is rebound in every ``infogeo`` module that holds
it (``fit_mixture_coords`` lives in ``families``, ``estimation``,
``projection`` and the ``classical`` package), and methods are rebound on
their class (``Kernel.matrix``, ``DensityMatrix.__post_init__``).

A span records layer, start, end, parent span and task id.  Spans stay in
memory until :meth:`Tracer.write` stores them at the end of the run.  A
layer's self time is its span time minus the time covered by its child spans;
calls are counted per layer, and a few layers add counters read from their
results (Newton iterations, audit trials, truncated runs).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _attr(module_name: str, attr: str):
    obj = sys.modules[module_name]
    for part in attr.split(".")[:-1]:
        obj = getattr(obj, part)
    return obj, attr.split(".")[-1]


def _fit_counts(result, counts):
    counts["quantum.fit.iterations"] += result.iterations


def _audit_counts(result, counts):
    counts["maps.audit.trials"] += result.trials
    counts["maps.audit.skipped"] += result.skipped


def _roll_counts(result, counts):
    counts["projection.truncated"] += int(result.truncated)


#: (layer, module, attribute, rebind everywhere?, result counter).  With
#: ``everywhere`` false the name is rebound in its own module only: the
#: ``expm`` that ``kubomori`` imported, not the one ``projection`` uses.
LAYERS = [
    ("spectral.eigh", "infogeo.spectral", "eigh", True, None),
    ("spectral.kernel_apply", "infogeo.spectral", "kernel_apply", True, None),
    ("spectral.kernel_matrix", "infogeo.spectral", "Kernel.matrix", False, None),
    ("classical.christoffel", "infogeo.classical.connections", "christoffel", True, None),
    ("classical.geodesic", "infogeo.classical.connections", "geodesic", True, None),
    ("classical.fit", "infogeo.classical.families", "fit_mixture_coords", True, None),
    ("classical.estimation", "infogeo.classical.estimation", "maxent_fit", True, None),
    ("classical.estimation", "infogeo.classical.estimation", "cramer_rao_report", True, None),
    ("classical.estimation", "infogeo.classical.estimation", "estimate_from_data", True, None),
    ("quantum.density_matrix", "infogeo.quantum.states", "DensityMatrix.__post_init__", False, None),
    ("quantum.fit", "infogeo.quantum.families", "quantum_maxent_fit", True, _fit_counts),
    ("quantum.cramer_rao", "infogeo.quantum.metrics", "quantum_cramer_rao", True, None),
    ("maps.audit", "infogeo.maps", "run_contraction_audit", True, _audit_counts),
    ("maps.push_state", "infogeo.maps", "push_state", True, None),
    ("kubomori.kubo_n_point", "infogeo.kubomori", "kubo_n_point", True, None),
    ("kubomori.expm", "infogeo.kubomori", "expm", False, None),
    ("kubomori.expand_log_z", "infogeo.kubomori", "expand_log_z", True, None),
    ("kubomori.derivative_check", "infogeo.kubomori", "massieu_derivative_check", True, None),
    ("projection.roll", "infogeo.projection", "roll", True, _roll_counts),
    ("projection.micro_step", "infogeo.projection", "micro_step", True, None),
]


def serialize_layers():
    """The readers and writers of ``infogeo.serialize`` as trace layers."""
    ser = sys.modules["infogeo.serialize"]
    out = []
    for name in sorted(vars(ser)):
        if not callable(getattr(ser, name)) or name.startswith("_"):
            continue
        if name.endswith("_from_json"):
            out.append(("serialize.load", "infogeo.serialize", name, True, None))
        elif name == "dump_json" or name.endswith(("_to_json", "_to_csv")):
            out.append(("serialize.dump", "infogeo.serialize", name, True, None))
    return out


class Tracer:
    """Collects spans and per-layer totals while its wrappers are installed."""

    def __init__(self, layers):
        self.layers = layers
        self.layer_names = sorted({entry[0] for entry in layers} | {"task"})
        self._layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self._stack = []
        self._next_id = 0
        self.task_id = -1
        self.spans = {
            "id": array("q"),
            "parent": array("q"),
            "task": array("q"),
            "layer": array("H"),
            "start": array("d"),
            "end": array("d"),
        }
        self.reset_totals()

    def reset_totals(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0, parent, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer: str):
        end = time.perf_counter()
        self._stack.pop()
        span_id, child_s, parent, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[layer] += 1
        self.self_s[layer] += duration - child_s
        values = (span_id, parent, self.task_id, self._layer_id[layer], start, end)
        for key, value in zip(self.spans, values):
            self.spans[key].append(value)

    def _wrap(self, layer: str, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, layer)
            if on_result is not None:
                on_result(result, tracer.counts)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for layer, module_name, attr, everywhere, on_result in self.layers:
                owner, name = _attr(module_name, attr)
                original = vars(owner)[name]
                wrapper = self._wrap(layer, original, on_result)
                holders = [owner]
                if everywhere:
                    holders += [
                        mod
                        for key, mod in list(sys.modules.items())
                        if key.startswith("infogeo") and mod is not owner
                        and vars(mod).get(name) is original
                    ]
                for holder in holders:
                    saved.append((holder, name, original))
                    setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, original in reversed(saved):
                setattr(holder, name, original)

    @contextlib.contextmanager
    def task(self, task_id: int):
        """Root span of one task; layer spans inside it carry its id."""
        self.task_id = task_id
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, "task")
            self.task_id = -1

    def write(self, path):
        """Store the spans as arrays, with the layer names alongside."""
        np.savez(
            path,
            layers=np.asarray(self.layer_names),
            **{key: np.asarray(arr) for key, arr in self.spans.items()},
        )
