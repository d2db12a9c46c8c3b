"""Host speed: a fixed task timed next to every op, to take host drift out of op times.

On a shared host the same op can take twice as long from one minute to the
next, because other tenants slow the core this process runs on. A fixed
task that does not use spiderbp, timed right before each op, slows by about
the same factor. ``scaled_ms`` turns an op's wall time into the time it
would take on a host where that task takes ``REFERENCE_MS``: the op's
wall time times ``REFERENCE_MS`` over the task's time around it.

The task mixes what spiderbp's hot paths do: small numpy products and
divisions driven by a Python loop with dict stores, and in-place passes
over a 512 KiB array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: about the task's median wall time on the host the benchmark was tuned
#: on (2-core shared Xeon VM); a scale only, so scaled times read close to
#: wall times there
REFERENCE_MS = 1.25

REPS = 5


#: allocated once: allocating it in the task would time page faults, whose
#: cost depends on the allocator's history in the process, not on the host
_BUFFER = np.ones(65536)


def _task():
    m = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    v = np.ones(3)
    seen = {}
    for i in range(200):
        v = m @ v
        v = v / v.sum()
        seen[i % 31] = (v, i)
    for _ in range(8):
        np.multiply(_BUFFER, 0.5, out=_BUFFER)
        np.add(_BUFFER, 0.5, out=_BUFFER)
    return float(v[0]) + float(_BUFFER[-1]) + len(seen)


def calibration_ms():
    """Median wall time of ``REPS`` runs of the task, in ms."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def scaled_ms(wall_ms, cal_ms):
    """``wall_ms`` at reference host speed, given the task's time ``cal_ms``."""
    return wall_ms * REFERENCE_MS / cal_ms
