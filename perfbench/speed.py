"""Correction of benchmark times for the speed of a shared machine.

On a virtual machine whose cores are shared with other tenants, the same
interpreter work can take twice as long from one second to the next.  The
benchmark therefore samples the machine while it runs: every ``PERIOD``
seconds a timer signal runs a fixed slice of pure-Python work (dict updates
with ``Fraction`` values, the operations the straightening loop spends its
time in) and records how long it took.  The mean of ``REF_SLICE_S / slice``
near a measured interval is the machine's speed relative to the reference
during it, and every time the benchmark reports is multiplied by it: the
result is the time the work would take on a machine that runs the slice in
``REF_SLICE_S``.  The speed changes within seconds, so a short interval is
corrected with the slices taken within ``WINDOW`` seconds of it.

Time spent in slices is kept out of every measured interval: ``clock()``
is ``time.perf_counter()`` minus the slice time so far.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1
REF_SLICE_S = 0.002
WINDOW = 1.0
MIN_SLICES = 5


def _slice() -> None:
    acc = {}
    for i in range(600):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 3)


class Sampler:
    """Runs ``_slice`` on SIGALRM between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.slices = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _slice()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.slices.append((t0 - self.spent, dt))
        self.spent += dt

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        spent = self.spent
        return time.perf_counter() - spent

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Speed relative to the reference around [start, end] of ``clock()``.

        Uses the slices taken within ``WINDOW`` seconds of the interval, or
        all of them when that leaves fewer than ``MIN_SLICES`` (1.0 when
        there are none).
        """
        near = [dt for t, dt in self.slices if start - WINDOW <= t <= end + WINDOW]
        if len(near) < MIN_SLICES:
            near = [dt for _, dt in self.slices]
        if not near:
            return 1.0
        return statistics.fmean(REF_SLICE_S / dt for dt in near)
