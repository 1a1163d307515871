"""Wall time scaled to a fixed reference CPU speed.

The machine the benchmark runs on may be a small share of a busy host:
the speed of one CPU can swing by a quarter within seconds, and drift
over an hour, so raw wall times of the same program spread wider than
any useful regression bound.  ``RefClock`` measures that speed while
the ops run and scales each op's wall time to what it would have been
at a fixed reference speed.

While a ``RefClock`` is active, a ``SIGALRM`` timer runs a short fixed
probe (exact ``Fraction`` row elimination, the same kind of work as the
program's kernels) every ``INTERVAL`` seconds in the main thread.  The
work done over a wall interval is estimated as its length, less the
probes' own time, times the mean probe speed (``1 / probe time``) of
the probes near it; ``REF_PROBE_S`` turns that work into reference
seconds.  A program that does less work gets a proportionally smaller
scaled time; a host that gets slower does not change it.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
# The probe's duration at the reference speed, near its fastest on an
# unloaded 2.1 GHz Xeon with Python 3.11.  Only ratios of scaled times
# matter; this constant makes them read close to unloaded wall seconds.
REF_PROBE_S = 5.0e-4
# Probes within this many seconds of an interval also count for it, so
# short ops get a few probes' worth of speed estimate.
WINDOW = 0.1

# A 6 x 12 block of small fractions; the probe eliminates below its
# first four pivots, the row operations the program's kernels are made of.
_ROWS = [[Fraction((7 * i + 3 * j) % 19 - 9, (i + 2 * j) % 6 + 1) for j in range(12)]
         for i in range(6)]


def probe() -> list[list[Fraction]]:
    """The fixed unit of work whose time measures the CPU's speed."""
    rows = [row[:] for row in _ROWS]
    for c in range(4):
        pivot = rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / pivot
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows


class RefClock:
    """Samples the CPU speed while active; scales wall intervals by it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self) -> "RefClock":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _speed(self, lo: int, hi: int) -> float:
        return sum(1 / (self.ends[i] - self.starts[i]) for i in range(lo, hi)) / (hi - lo)

    def speed(self) -> float:
        """The mean CPU speed while active, as a share of the reference."""
        return self._speed(0, len(self.starts)) * REF_PROBE_S

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in the wall interval [t0, t1].

        Call it after the clock has stopped, so that the probes just
        after the interval count too.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        probing = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        if hi == lo:  # no probe near the interval: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return (t1 - t0 - probing) * self._speed(lo, hi) * REF_PROBE_S
