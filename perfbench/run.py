"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload classical-geometry --seed 1 \\
        --seconds 34 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:
one client runs tasks back to back (a closed loop, one process) for at least
``--seconds`` and until it has 100 tasks, always finishing the workload's
current cycle so every run has the same size mix.  After each cycle the
outputs are checked against the workload's oracle with the clock stopped.
A fixed reference kernel (``reference.py``) is timed just before every task,
and every task latency is divided by that kernel time and scaled to a
machine that runs the kernel in ``REFERENCE_MS``: the load that other
tenants put on a shared machine slows both alike and cancels.
``task_p50_ms`` and ``task_p90_ms`` are percentiles of all the run's scaled
latencies, and ``tasks_per_s`` is the passed tasks over their sum.
``setup_s`` is the median scaled set-up time of this process and of four
fresh interpreters started one after another.

``--trace 1`` measures the per-layer metrics.  It runs a fixed list of tasks
(``trace_cycles`` whole cycles) alternately untraced and traced until
``--seconds`` have passed.  Call counts come from a fixed amount of work, so
they repeat exactly for a seed; self times are medians over the traced
passes, and ``trace.overhead_frac`` is the traced over the untraced task rate,
minus 1.  A CLI probe (``cliprobe.py``) then measures the ``cli`` and
``serialize`` layers.  Spans are written to ``.perfbench_out/``.

BLAS and OpenMP are pinned to one thread before numpy loads.  The last line
of standard output is the result object; the line before it records the
environment and the failure share.  Every run also appends both to
``.perfbench_out/runs.jsonl``, which ``compare.py`` reads.
"""

import os
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_TASKS = 100  # so task_p90_ms has at least ten samples beyond it
HARD_CAP_S = 150.0  # a run must end within 180 s, even on a slow machine
SETUP_SAMPLES = 5
SETUP_KERNEL_RUNS = 5
SETUP_CHILD = ("import sys, run; run.load(); "
               "run.set_up_child(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def git_sha():
    """Commit of the checkout from ``.git`` files, or None outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_file):
        with open(ref_file, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_digest():
    """SHA-256 over the package sources, so runs outside git stay traceable."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "infogeo")
    for folder, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_cycle(workload, seed, cycle, tracer=None, first_task_id=0, limit=None,
              kernel_times=None):
    """Run one cycle's tasks (the first ``limit`` of them), then check them
    with the clock stopped.

    Returns (task latencies in s, failures as (task, message) pairs).  Input
    generation and the oracle run outside the latencies, and each cycle's
    outputs are dropped once checked, so memory does not grow with the run.
    Given a list ``kernel_times``, the reference kernel is timed before each
    task and its times are appended there.
    """
    import reference
    from workloads import task_rng

    done, latencies = [], []
    for index, spec in enumerate(workload.cycle[:limit]):
        inp = workload.draw(task_rng(seed, cycle, index), spec)
        if kernel_times is not None:
            kernel_times.append(reference.time_kernel())
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(spec, inp)
            else:
                with tracer.task(first_task_id + index):
                    out = workload.run(spec, inp)
            error = None
        except Exception as exc:  # a failing task is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        done.append((spec, inp, out, error))
    failures = []
    for spec, inp, out, error in done:
        if error is None:
            try:
                problems = workload.check(spec, inp, out)
            except Exception as exc:  # an oracle that cannot run is a failure
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            failures.append((workload.spec_label(spec), "; ".join(problems)))
    return latencies, failures


def scaled_setup(seconds):
    """Set-up seconds scaled by the reference kernel, timed just after it."""
    import reference

    reference.warm_up()
    kernel_s = statistics.median(reference.time_kernel() for _ in range(SETUP_KERNEL_RUNS))
    return seconds * reference.REFERENCE_MS / (kernel_s * 1e3), seconds


def set_up(workload, seed):
    """Set-up time, as the median of this process and fresh interpreters.

    Set-up runs from the top of this script to the end of one untimed
    warm-up task (imports, input generation, the task).  Imports only cost
    once per process, so the other samples come from SETUP_SAMPLES - 1
    interpreters started one at a time, each doing the same set-up with its
    own warm-up inputs.  Each sample is scaled by the reference kernel timed
    right after it.  Returns (scaled setup seconds, raw setup seconds, tasks
    attempted, failures).
    """
    from workloads import WARMUP_CYCLE

    failures = run_cycle(workload, seed, WARMUP_CYCLE, limit=1)[1]
    samples = [scaled_setup(time.perf_counter() - START)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(__file__)))
    for rep in range(1, SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, workload.name, str(seed), str(rep)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            failures.append(("set-up", proc.stderr.strip()[-300:]))
            continue
        child_s, child_failures = json.loads(proc.stdout.splitlines()[-1])
        samples.append(tuple(child_s))
        failures += [tuple(f) for f in child_failures]
    scaled, raw = zip(*samples)
    return statistics.median(scaled), statistics.median(raw), SETUP_SAMPLES, failures


def set_up_child(name, seed, rep):
    """One set-up sample in a fresh interpreter; prints [seconds, failures]."""
    from workloads import WARMUP_CYCLE, WORKLOADS

    failures = run_cycle(WORKLOADS[name], seed, WARMUP_CYCLE + rep, limit=1)[1]
    print(json.dumps([scaled_setup(time.perf_counter() - START), failures]))


def measure_end_to_end(workload, seed, seconds):
    """Whole cycles until ``seconds`` have passed and MIN_TASKS have run.

    Returns (per-cycle lists of task latencies, per-cycle lists of reference
    kernel times, failures).
    """
    import reference

    reference.warm_up()
    cycles, kernels, failures = [], [], []
    start = time.perf_counter()
    while True:
        kernel_times = []
        lat, fail = run_cycle(workload, seed, len(cycles), kernel_times=kernel_times)
        cycles.append(lat)
        kernels.append(kernel_times)
        failures += fail
        elapsed = time.perf_counter() - start
        done = sum(len(c) for c in cycles)
        if (elapsed >= seconds and done >= MIN_TASKS) or elapsed >= HARD_CAP_S:
            return cycles, kernels, failures


def scaled_latencies(latency, kernel_times):
    """Task latencies in ms on a machine that runs the kernel in REFERENCE_MS.

    ``latency`` and ``kernel_times`` are (cycles, tasks per cycle), in s.
    Each task is divided by the kernel time taken just before it: the load
    changes within seconds, so the nearest kernel time tracks it best, and
    the noise of single kernel times averages out over the run's 100 or
    more tasks.
    """
    import reference

    return latency / kernel_times * reference.REFERENCE_MS


def measure_layers(workload, seed, seconds):
    """Alternate untraced and traced passes over a fixed task list.

    Pairs run in the order UT, TU, UT, ... so slow drift of the machine
    does not favour either side.  Returns (tasks attempted, per-layer
    values, failures).
    """
    import spans

    tracer = spans.Tracer(spans.LAYERS)
    walls = {False: [], True: []}
    passes, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while not walls[True] or time.perf_counter() - start < seconds:
        order = (False, True) if len(walls[True]) % 2 == 0 else (True, False)
        for traced in order:
            tracer.reset_totals()
            pass_wall = 0.0
            with tracer.installed() if traced else contextlib.nullcontext():
                for cycle in range(workload.trace_cycles):
                    first = (len(passes) * workload.trace_cycles + cycle) * len(workload.cycle)
                    lat, fail = run_cycle(workload, seed, cycle,
                                          tracer if traced else None, first)
                    pass_wall += sum(lat)
                    failures += fail
                    attempted += len(lat)
            walls[traced].append(pass_wall)
            if traced:
                passes.append((dict(tracer.calls), dict(tracer.counts),
                               dict(tracer.self_s)))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.npz"))

    calls, counts, _ = passes[0]
    if any(p[0] != calls or p[1] != counts for p in passes[1:]):
        failures.append(("trace", "call counts differ between identical passes"))
    values = {}
    for layer in {entry[0] for entry in spans.LAYERS}:
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = statistics.median(p[2].get(layer, 0.0) for p in passes)
    trials = counts.get("maps.audit.trials", 0)
    skipped = counts.get("maps.audit.skipped", 0)
    values["maps.audit.trials"] = trials
    values["maps.audit.useful_frac"] = (trials - skipped) / trials if trials else 0.0
    values["quantum.fit.iterations"] = counts.get("quantum.fit.iterations", 0)
    values["projection.truncated"] = counts.get("projection.truncated", 0)
    # same tasks in both passes, so the rate ratio is the inverse time ratio
    values["trace.overhead_frac"] = (statistics.median(walls[False])
                                     / statistics.median(walls[True]) - 1.0)
    return attempted, values, failures


def load():
    """Put the checkout's ``src`` first on the path and import the program.

    Returns an error message when the checkout has no ``src/infogeo``.
    """
    if not os.path.isfile(os.path.join(SRC, "infogeo", "__init__.py")):
        return "src/infogeo not found; run from the repository root"
    sys.path.insert(0, SRC)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import infogeo

    if not os.path.abspath(infogeo.__file__).startswith(SRC + os.sep):
        return f"imported infogeo from {infogeo.__file__}"
    return None


def main(argv=None):
    args = parse_args(argv)
    problem = load()
    if problem:
        sys.stderr.write(f"perfbench: {problem}\n")
        return 2
    import numpy as np

    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_s, setup_raw_s, attempted, problems = set_up(workload, args.seed)
    if args.trace == 0:
        cycles, kernels, failures = measure_end_to_end(workload, args.seed, args.seconds)
        problems += failures
        latency = np.asarray(cycles)  # (cycles, tasks per cycle), in s
        kernel_times = np.asarray(kernels)
        attempted += latency.size
        scaled_ms = scaled_latencies(latency, kernel_times)
        values = {
            "tasks_per_s": (latency.size - len(failures)) * 1e3 / scaled_ms.sum(),
            "task_p50_ms": float(np.percentile(scaled_ms, 50)),
            "task_p90_ms": float(np.percentile(scaled_ms, 90)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        detail = {"tasks": latency.size, "cycles": len(cycles),
                  "setup_raw_s": setup_raw_s,
                  "raw_p50_ms": float(np.percentile(latency, 50)) * 1e3,
                  "raw_p90_ms": float(np.percentile(latency, 90)) * 1e3,
                  "kernel_ms": (np.median(kernel_times, axis=1) * 1e3).tolist(),
                  "cycle_s": latency.sum(axis=1).tolist()}
        saved = {"latency_ms": (latency * 1e3).tolist(),
                 "kernel_all_ms": (kernel_times * 1e3).tolist()}
    else:
        import cliprobe

        tasks, values, failures = measure_layers(workload, args.seed, args.seconds)
        problems += failures
        attempted += tasks
        folder = os.path.join(OUT_DIR, f"cli-inputs-seed{args.seed}")
        cli_values, cli_attempted, cli_failures = cliprobe.probe(args.seed, ROOT, folder)
        values.update(cli_values)
        attempted += cli_attempted
        problems += [("cli", f) for f in cli_failures]
        names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        detail = {"tasks": tasks, "setup_raw_s": setup_raw_s}
        saved = {}

    failed = len(problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "failed_frac": failed / attempted,
        "first_failures": problems[:5],
        **detail,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, **saved, "result": result}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
