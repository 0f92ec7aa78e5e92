"""Measure the machine's current speed, so that times can be scaled to it.

The benchmark shares its cores with other tenants, and their load makes
the same work take up to 1.8 times as long for tens of seconds at a time.
A *slice* is a fixed piece of pure-Python work of the kind severi does
(tuple-keyed dict updates, big-integer and Fraction arithmetic, number
formatting and parsing) that touches no severi code.  A ``Clock`` runs a
slice about once a second, on SIGALRM, while operations run; the slices'
own time is taken out of the operations they interrupt.  A time t
measured over [start, end] is reported as t * REF_SLICE_S / c, where c
is the mean slice time around that interval: the time the work would
take on this machine with the slice at its reference speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_SLICE_S = 0.08  # a slice's time on the reference machine, a 2-core Intel Xeon VM
INTERVAL_S = 1.0
WINDOW_S = 2.0  # slices this close to an operation count towards its scale


def _work() -> None:
    # a working set of a few hundred kilobytes, so a slice moves no peak RSS
    table: dict[tuple, int] = {}
    acc = Fraction(0)
    big = 3**200
    for i in range(1, 40000):
        key = (i % 61, (i % 7, i % 3))
        table[key] = table.get(key, 0) + big * i
        if i % 3 == 0:
            acc += Fraction(i, i % 11 + 1)
        if i % 16 == 0:
            int(str(table[key]))


def slice_seconds() -> float:
    """Time one slice; garbage collection stays off so heap size does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Slices every INTERVAL_S while active, kept as (start, end, seconds)."""

    def __init__(self) -> None:
        self.slices: list[tuple[float, float, float]] = []
        self._previous = None
        self._busy = False

    def _slice(self, *_) -> None:
        if self._busy:  # a slice outlasting INTERVAL_S is not interrupted by the next
            return
        self._busy = True
        start = time.perf_counter()
        seconds = slice_seconds()
        self.slices.append((start, time.perf_counter(), seconds))
        self._busy = False

    def __enter__(self) -> "Clock":
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def active(self, start: float, end: float) -> float:
        """The part of [start, end] not spent in slices."""
        covered = sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.slices)
        return end - start - covered

    def scale(self, start: float, end: float) -> float:
        """REF_SLICE_S over the mean slice within WINDOW_S of [start, end].

        The slice just before and the one just after always count, so
        every interval gets at least two.
        """
        starts = [s for s, _, _ in self.slices]
        lo = min(bisect.bisect_left(starts, start - WINDOW_S), bisect.bisect_left(starts, start) - 1)
        hi = max(bisect.bisect_right(starts, end + WINDOW_S), bisect.bisect_right(starts, end) + 1)
        return REF_SLICE_S / statistics.fmean(c for _, _, c in self.slices[max(0, lo):hi])
