"""Host speed, sampled during a timed pass, to rescale its wall time.

On a shared virtual machine the same code runs up to 2x slower for stretches
of seconds to minutes, because other tenants contend for the cores; the
process's CPU time grows with its wall time, so nothing shows as waiting.
A fixed reference computation, timed every INTERVAL_S seconds inside the
timed process, slows in step with it.  Dividing the pass's wall time by the
mean reference time and multiplying by NOMINAL_S gives the pass's time at a
nominal host speed: seconds, steady across those stretches.  Time spent in
the samples is taken out of the pass's wall time.

The reference uses only Python arithmetic and numpy on small arrays, the
mix the package spends its time in, and nothing from the package itself,
so a change to the package cannot move it.  It samples the host, not the
process: a change that ran work on other threads while a sample is taken
would slow the reference too.  The benchmark runs one thread.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
# about the reference's time on the 2-vCPU Xeon host this benchmark was
# written on, in its fast stretches; it only fixes the unit of the rescaled
# times
NOMINAL_S = 0.002

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_MATRIX = _MATRIX + _MATRIX.T
_GRID = np.linspace(0.1, 1.5, 16)


def reference() -> float:
    """A fixed computation of a few milliseconds."""
    total = 0.0
    for i in range(4000):
        total += math.sin(i * 1e-3) * (i % 7)
    for i in range(100):
        y = np.cos(_GRID * (1.0 + 1e-3 * i)) * np.tanh(_GRID) + np.sin(_GRID)
        total += float(np.dot(y, y)) + float(np.linalg.eigvalsh(_MATRIX)[0])
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class HostClock:
    """Samples the reference every INTERVAL_S seconds of wall time while
    active (SIGALRM; main thread, Unix only)."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_):
        self.samples.append(time_reference())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """How many times slower than nominal the host ran while active."""
        if not self.samples:
            self.samples.append(time_reference())
        return statistics.fmean(self.samples) / NOMINAL_S

    def rescale(self, wall: float) -> float:
        """Seconds at the nominal speed for `wall` seconds measured while
        active (sample time included in `wall`)."""
        return (wall - sum(self.samples)) / self.slowdown()
