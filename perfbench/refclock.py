"""Wall time rescaled to a fixed machine speed.

The reference machine is a shared host whose speed moves by up to a factor
of two within seconds: a fixed pure-Python loop takes 0.20 s at one moment
and 0.39 s a few seconds later, with CPU time moving the same way.  A
RefClock follows that speed by timing a short fixed task, its *probe*, near
every measured interval.  ``seconds(a, b)`` turns the wall interval [a, b]
into reference seconds: each stretch of work between two probe samples is
scaled by ``ref_s`` over the median duration of the samples nearest to it,
and the samples' own time is left out.  A program that gets twice as fast
halves its reference seconds, whatever the machine's speed at the time.

Two probes are used.  Work done in this process is scaled by
``calibrate()``, sampled every PERIOD seconds from a SIGALRM handler while a
pass runs.  Child processes are scaled by the start-up of a bare Python
child (``python -c pass``), sampled before and after each measured child:
the cost of a child is mostly process start and imports, which follow the
start-up of other children much more closely than in-process arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable

import numpy as np

# Median duration of one calibrate() on the reference machine (2-core Intel
# Xeon, Python 3.11.7, numpy 2.4.6).  In-process reference seconds are wall
# seconds at the speed at which calibrate() takes this long.
CAL_REF_S = 0.0090
# Median wall time of `python -c pass` on the same machine; the same for
# child processes.
START_REF_S = 0.050
# Seconds between calibrations while a pass runs.
PERIOD = 0.25


def calibrate() -> int:
    """Fixed work of the kinds the library does: Fraction arithmetic,
    tuple hashing, dict updates, sorting, combinations, small numpy calls."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1000):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = tuple(sorted((i * 7919 % 31, i % 13, i % 5)))
        table[key] = table.get(key, 0) + 1
    for combo in itertools.combinations(range(14), 3):
        table[combo] = len(table)
    x = np.arange(8, dtype=float)
    for _ in range(200):
        x = np.maximum(x - x.sum() / 8, 0.0) + 1.0
    return acc.denominator % 7 + len(table)


class RefClock:
    def __init__(self, probe: Callable[[], object] = calibrate,
                 ref_s: float = CAL_REF_S, window: int = 3):
        self.probe = probe
        self.ref_s = ref_s
        # samples on each side of a stretch of work that set its speed
        self.window = window
        self.samples = []  # (start, end) of each probe run, in time order
        self._busy = False
        self._previous_handler = None

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            if self._busy:  # a timer signal that arrives during a sample
                return
            self._busy = True
            try:
                start = time.perf_counter()
                self.probe()
                self.samples.append((start, time.perf_counter()))
            finally:
                self._busy = False

    def start_timer(self) -> None:
        """Sample now and then every PERIOD seconds until stop_timer()."""
        self.sample()
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self.sample()

    def calibration_within(self, a: float, b: float) -> float:
        """Wall seconds that samples took inside [a, b]."""
        return sum(e - s for s, e in self.samples if s >= a and e <= b)

    def typical(self) -> float:
        """Median wall duration of all samples so far."""
        return statistics.median(e - s for s, e in self.samples)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the work done in [a, b], samples excluded.

        The work between two consecutive samples is scaled by the median
        duration of the `window` samples on each side of it, so one slow or
        fast sample does not decide a stretch alone."""
        starts = [s for s, _ in self.samples]
        total = 0.0
        cursor = a
        # samples[i] is the first sample that starts at or after `cursor`
        i = bisect.bisect_left(starts, a)
        while cursor < b:
            end = min(starts[i], b) if i < len(starts) else b
            total += (end - cursor) / self._near(i)
            if end >= b:
                break
            cursor = self.samples[i][1]
            i += 1
        return total * self.ref_s

    def _near(self, i: int) -> float:
        """Median duration of the samples around the gap before samples[i]."""
        near = self.samples[max(0, i - self.window):i + self.window]
        if not near:
            raise ValueError("no probe sample around the interval")
        return statistics.median(e - s for s, e in near)
