"""A fixed reference computation that tells how fast the machine runs now.

The benchmark shares its host with other work, and the speed of a core
drifts with that work: the same loop takes up to 1.5-2x longer in one
minute than in the next, and the drift moves interpreter code and small
numpy calls alike.  Wall times taken minutes apart then differ by more
than any change of the program worth catching.

So after every timed call the worker runs reference chunks (``follow``)
for about SHARE of that call's time, at least one.  A chunk is the same
work on every commit (pure-Python arithmetic, small numpy linear algebra
and float formatting, the three kinds of work the CLI calls do) and never
touches the package.  ``factors`` turns the chunk times into one factor per
call: REF_S over the mean chunk time after the WINDOW calls nearest that
call.  A call's time times its factor is its time at reference speed, the
speed at which a chunk takes REF_S.  The mean, not the median, because a
core that is taken away for a few milliseconds at a time slows the calls
by the share of time it is away, and the mean of many short chunks
measures that share while the median would skip it.  A change of the program moves the call
times and not the chunks, so it shows in full; a change of the machine's
speed moves both, and cancels.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: seconds one chunk takes at reference speed (the median measured on a
#: 2-core x86-64 host, Python 3.11.7, numpy 2.4.6, one BLAS thread); a
#: constant, so that every commit is put on the same scale
REF_S = 1.4e-3
#: calls per speed estimate: two to four seconds of calls
WINDOW = 31
#: reference time after a call, as a share of the call's time
SHARE = 0.05

_RNG = np.random.default_rng(20190401)
_M = _RNG.standard_normal((8, 8))
_M = _M @ _M.T
_V = _RNG.standard_normal(64).tolist()


def _work() -> float:
    acc = 0.0
    for i in range(5000):
        acc += (i * 0.5) % 3.0
    for _ in range(90):
        acc += float(np.linalg.eigvalsh(_M)[0])
        acc += float(np.dot(_M[0], _M[1]))
    acc += len(",".join(f"{v:.17g}" for v in _V))
    return acc


def chunk() -> float:
    """Seconds one reference chunk takes now (the collector held off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def follow(call_s: float) -> list[float]:
    """Chunks for about SHARE * ``call_s`` seconds, at least one: their
    total seconds and their count."""
    total, count = 0.0, 0
    while count == 0 or total < SHARE * call_s:
        total += chunk()
        count += 1
    return [total, count]


def factors(paces: list[list[float]], window: int = WINDOW) -> np.ndarray:
    """For each ``follow`` result, REF_S over the mean chunk time of the
    ``window`` results nearest it."""
    x = np.asarray(paces, dtype=float).reshape(-1, 2)
    n = x.shape[0]
    w = min(window, n)
    out = np.empty(n)
    for i in range(n):
        lo = min(max(0, i - w // 2), n - w)
        total, count = x[lo:lo + w].sum(axis=0)
        out[i] = REF_S * count / total
    return out
