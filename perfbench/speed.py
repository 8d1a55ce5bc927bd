"""The machine's speed, from a fixed loop timed between jobs.

The machine the benchmark was defined on is shared: for seconds to
minutes at a time, all code on it runs tens of percent slower, and a
run of half a minute cannot outlast such a phase.  The loop here is
timed before the first job of a pass and after every job.  A job's time
scaled by ``REF_SECONDS`` over the median of the loop times around it is
its time at reference speed: the phase cancels from the ratio, while a
change to the library leaves the loop alone.
"""
from __future__ import annotations

import random
import statistics
import time

# The loop's time on a 2-core x86-64 machine (Python 3.11, in a quiet
# phase), rounded.  It only sets the scale of the reported seconds.
REF_SECONDS = 0.002

# Loop times on each side of a job (or a cold start) that its speed is
# the median of: about a second of jobs.
WINDOW = 10

_rng = random.Random(20160903)
_COLUMNS = [tuple(sorted(_rng.sample(range(50_000), 40))) for _ in range(192)]


def _merge(a: tuple, b: tuple) -> tuple:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _loop() -> dict:
    """Sorted-tuple merges and dict stores, the library's kind of work."""
    table = {}
    for k in range(1, len(_COLUMNS)):
        table[k] = _merge(_COLUMNS[k - 1], _COLUMNS[k])
    return table


def loop_seconds() -> float:
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(loops: list[float], i: int) -> float:
    """Factor from seconds to seconds at reference speed for something
    timed between loops[i] and loops[i + 1]."""
    return REF_SECONDS / statistics.median(loops[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
