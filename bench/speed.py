"""Speed probe: how fast the benchmark's CPU runs while a child is timed.

On a shared host the same command can take 20-35% more or less time
from one minute to the next, because other tenants contend for the
physical cores and caches.  That drift is larger than the changes the
benchmark must resolve.  So the benchmark process and its children are
pinned to one CPU, and while a child runs the benchmark process runs a
fixed chunk of work on that same CPU every ``PERIOD_S`` seconds and
records the chunk's thread CPU time.  The chunk is the modified Lentz
continued fraction on a 225-point array, the operation mix of the
program's hottest kernel (many small numpy ufunc calls), but it is the
benchmark's own copy and does not change when the program does.

A measured time ``t`` over an interval whose chunks took ``c`` seconds
on average is reported as ``t * REF_CHUNK_S / c``: seconds at the
reference speed, the speed at which a chunk takes ``REF_CHUNK_S``.  A
wall time first loses the chunks' own CPU seconds, which the child
waited for on the shared CPU.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# A fixed reference, close to the median thread time of one chunk on the
# 2-vCPU Intel Xeon KVM guest the baseline was recorded on (Python
# 3.11.7, numpy 2.4.6), where it ranged over 0.012-0.021 s.
REF_CHUNK_S = 0.015
PERIOD_S = 0.2  # a chunk every 0.2 s: about a tenth of the pinned CPU

_X = np.linspace(1.6, 40.0, 225)


def _chunk() -> float:
    s, tiny = -0.5, 1e-300
    h = _X
    for _ in range(20):
        b = _X + 1.0 - s
        c = np.full_like(_X, 1.0 / tiny)
        d = 1.0 / b
        h = d.copy()
        for i in range(1, 40):
            an = -i * (i - s)
            b = b + 2.0
            d = an * d + b
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = b + an / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            h = h * (d * c)
    return float(h[0])


def chunk_seconds() -> float:
    """Thread CPU seconds of one chunk."""
    t0 = time.thread_time()
    _chunk()
    return time.thread_time() - t0


def pin() -> int:
    """Pin this process, and so every child it starts, to one CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def factor(chunks) -> float:
    """Scale from measured seconds to seconds at the reference speed."""
    return REF_CHUNK_S / statistics.mean(chunks)


def wall_at_reference(wall_s, chunks) -> float:
    """Wall seconds less the probe's own CPU seconds, at the reference speed."""
    return (wall_s - sum(chunks)) * factor(chunks)
