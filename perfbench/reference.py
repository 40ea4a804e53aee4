"""A fixed reference kernel that measures the machine's speed of the moment.

On a shared machine other tenants slow every process alike, by up to
two-fold, in bursts that come and go within seconds and shift over
minutes.  The benchmark times this kernel just before every task and
reports each task time divided by that kernel time, scaled by
``REFERENCE_MS``: a task's time on a machine that runs the kernel in
``REFERENCE_MS`` milliseconds.  A change to the program moves the task
times and not the kernel, so it shows in full; the load of the moment moves
both and cancels.

The kernel is a fixed mix of the work the workloads do, written with numpy
and scipy only and never calling ``infogeo``: Python-level loops,
``scipy.special.logsumexp`` on short vectors, a small Hermitian ``eigh`` and
a mid-size matrix product.  Its inputs are built once from a fixed seed.
"""

import time

import numpy as np
from scipy.special import logsumexp

# About the kernel's fastest time on the machine the bounds were set on (a
# shared 2-core Intel Xeon virtual machine, Python 3.11, numpy 2.4, scipy
# 1.17), so scaled times read close to that machine's unloaded times.
REFERENCE_MS = 5.0
REPEATS = 8

_rng = np.random.default_rng(12345)
_VECTORS = [_rng.normal(size=16) for _ in range(8)]
_H = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_H = _H + _H.conj().T
_M = _rng.normal(size=(48, 48))


def kernel():
    total = 0.0
    for _ in range(REPEATS):
        for v in _VECTORS:
            total += logsumexp(v)
        total += np.linalg.eigh(_H)[0][0]
        total += float((_M @ _M)[0, 0])
        x = 0
        for i in range(150):
            x += i * i
        total += x
    return total


def time_kernel():
    """Seconds taken by one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def warm_up(runs=5):
    """Run the kernel a few times untimed, so its first-call costs are paid."""
    for _ in range(runs):
        kernel()
