"""Self-test of the benchmark's determinism.

Usage, from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that

* two traced passes with the same seed give identical call counts and
  counters (``*.calls``, ``*.iterations``, ``*.trials``, ...);
* a pass with another seed draws inputs of the same shapes in the same
  order, so the size mix and the d / omega / order distribution are the
  same, while the drawn values differ;
* the counts fixed by the sizes alone (Christoffel evaluations, n-point
  functions, ``expm`` calls, audit trials, micro steps) do not change with
  the seed.

It prints one line per check and exits 1 if any fails.
"""

import sys

import run  # pins the BLAS threads before numpy loads

PROBLEM = run.load()
if PROBLEM:
    sys.exit(f"perfbench: {PROBLEM}")

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SIZE_COUNTS = ("classical.christoffel", "classical.geodesic", "kubomori.kubo_n_point",
               "kubomori.expm", "projection.micro_step", "maps.audit.trials")


def traced_pass(workload, seed):
    tracer = spans.Tracer(spans.LAYERS)
    failures = []
    with tracer.installed():
        for cycle in range(workload.trace_cycles):
            failures += run.run_cycle(workload, seed, cycle, tracer,
                                      cycle * len(workload.cycle))[1]
    return {**tracer.calls, **tracer.counts}, failures


def drawn_inputs(workload, seed):
    shapes, values = [], []
    for cycle in range(workload.trace_cycles):
        for index, spec in enumerate(workload.cycle):
            inp = workload.draw(workloads.task_rng(seed, cycle, index), spec)
            shapes.append((spec, sorted((k, np.shape(v)) for k, v in inp.items())))
            values.append(np.concatenate([np.ravel(v) for v in inp.values()
                                          if v is not None]))
    return shapes, values


def main(seed=1, other_seed=2):
    ok = True

    def report(passed, text):
        nonlocal ok
        ok &= passed
        print(("ok   " if passed else "FAIL ") + text)

    for workload in workloads.WORKLOADS.values():
        first, fail1 = traced_pass(workload, seed)
        second, fail2 = traced_pass(workload, seed)
        other, fail3 = traced_pass(workload, other_seed)
        report(not (fail1 or fail2 or fail3),
               f"{workload.name}: every task passes its oracle")
        report(first == second, f"{workload.name}: same seed, identical counts "
               f"({sum(first.values())} events in {len(first)} counters)")
        shapes, values = drawn_inputs(workload, seed)
        other_shapes, other_values = drawn_inputs(workload, other_seed)
        report(shapes == other_shapes,
               f"{workload.name}: seeds {seed} and {other_seed} draw the same sizes")
        report(all(not np.array_equal(a, b) for a, b in zip(values, other_values)),
               f"{workload.name}: seeds {seed} and {other_seed} draw different values")
        size_counts = {k: first.get(k, 0) for k in SIZE_COUNTS}
        report(size_counts == {k: other.get(k, 0) for k in SIZE_COUNTS},
               f"{workload.name}: size-determined counts match across seeds "
               f"{size_counts}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
