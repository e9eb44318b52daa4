"""The machine's speed, from a fixed pure-Python reference kernel.

On a shared virtual machine the same work takes up to a quarter more CPU
time in one minute than in another, as neighbours load the cores and
caches; within a run of half a minute the swing mostly cancels, between
runs minutes apart it does not.  ``run.py`` therefore times this kernel
in its own small process before a worker starts and then every quarter
second of operation time, while the worker waits, and scales the run's
times to ``REFERENCE_S``: a time t is reported as
t * REFERENCE_S / (median kernel time).  The kernel does the kind of
work the engine does (``Fraction`` arithmetic, tuple hashing, dict
inserts, small allocations), uses nothing from ``cspaces`` and runs in a
process whose heap does not depend on the engine, so no change to the
engine can move it.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median CPU time of one kernel() on a shared 2-vCPU virtual machine
# (Intel Xeon, CPython 3); the speed the reported times are scaled to.
REFERENCE_S = 0.0065
SAMPLES = 100  # kernel calls in one samples() call, about 0.65 s


def kernel():
    table = {}
    acc = Fraction(0)
    for i in range(1, 500):
        f = Fraction(i, i + 7)
        acc += f
        table[(i, f)] = (str(i), f)
        hash((acc, i))
    return len(table)


def samples(count=SAMPLES):
    """CPU seconds of ``count`` kernel calls, garbage collection paused."""
    out = []
    gc.disable()
    try:
        for _ in range(count):
            t0 = time.process_time()
            kernel()
            out.append(time.process_time() - t0)
    finally:
        gc.enable()
    return out


def scale(times):
    """Factor that turns CPU seconds measured next to ``times`` (kernel
    samples) into CPU seconds at the reference speed."""
    return REFERENCE_S / statistics.median(times)
