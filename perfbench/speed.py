"""Host speed probe: scales host timings for machine-speed drift.

On a shared machine the speed of one CPU drifts by 10-40% over seconds
to minutes (other tenants, frequency changes).  That drift is larger
than the differences this benchmark has to resolve, and it is slow, so
averaging within one run does not remove it.  A :class:`SpeedClock`
therefore times a fixed reference kernel (about 5 ms) between the
workload's operations, at most every ``INTERVAL_S`` seconds, and each
operation's host seconds are scaled by ``REFERENCE_S / probe_s`` at the
moment it ran (probe times interpolated linearly): a host time reads as
it would at the reference speed.  The raw host times are printed next
to the scaled ones, together with the median scale, so neither is
hidden.

The kernel mixes what the workloads spend host time on: interpreted
Python (loops, dict traffic), many small NumPy calls and a memory copy.
It allocates no Python objects the garbage collector tracks.  It makes no BLAS call: the wake-up latency of
idle BLAS threads would dominate its time.
"""

from __future__ import annotations

import gc
import math
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Probe seconds that read as "reference speed" (scale factor 1.0).
REFERENCE_S = 0.0045

#: Least host seconds between two probe samples taken by ``tick``.
INTERVAL_S = 0.25

_rng = np.random.default_rng(2005)
_POINTS = _rng.random((48, 24))
_QUERIES = _rng.random((32, 24))
_COPY = _rng.random(1 << 16)


def _kernel() -> float:
    table = dict.fromkeys(range(64), 0)
    acc = 0
    for i in range(24000):
        table[i & 63] += i
        acc += i * i
    total = float(acc % 1000003)
    for query in np.concatenate([_QUERIES, _QUERIES, _QUERIES]):
        diff = _POINTS - query
        d = np.einsum("ij,ij->i", diff, diff)
        total += float(d[np.argsort(d)[0]])
    total += float(_COPY.copy().sum())
    return total


def probe() -> float:
    """Seconds of one run of the reference kernel, with the garbage
    collector paused (a collection would time the heap the workload left
    behind, not the machine)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        _kernel()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Probe samples taken between operations, and the scale they imply."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.probes: List[float] = []
        self._last = -math.inf

    def force(self) -> None:
        """Take a probe sample now."""
        began = time.perf_counter()
        self.probes.append(probe())
        self.times.append(began)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a probe sample if ``INTERVAL_S`` seconds passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.force()

    def factor(self, at: float) -> float:
        """Scale for host seconds measured around time ``at``."""
        return REFERENCE_S / float(np.interp(at, self.times, self.probes))

    def scale(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """``[(midpoint, seconds), ...]`` -> seconds at the reference speed."""
        return [seconds * self.factor(mid) for mid, seconds in spans]
