"""Host-speed calibration, interleaved with the work it scales.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third from one minute to the next, which swamps most changes to the
program.  So while a worker runs, a wall-clock timer interrupts it every
``PERIOD_S`` and runs a fixed reference unit for ``SHARE`` of that period.
The units' mean time over a pass measures how fast the host ran during that
very pass, and the pass's times, less the time spent in the units, are
scaled to a host on which one unit takes ``REFERENCE_UNIT_S``.

The unit does the kind of work the program does -- exact ``Fraction``
elimination and a product of dict-of-tuple polynomials -- in code of its
own, so a change to the program never changes the unit.  The timer's
handler runs between bytecodes of the main thread, so no second thread
competes with the program for the host's cores.
"""

from __future__ import annotations

import bisect
import random
import signal
from fractions import Fraction
from time import perf_counter

# seconds one unit takes at the reference speed: its fastest time on the
# baseline host (Intel Xeon vCPU at 2.0 GHz, Python 3.11.7), so scaled
# times read close to wall time on that host when it is not contended
REFERENCE_UNIT_S = 0.52e-3
PERIOD_S = 0.02
SHARE = 0.25  # of each period, spent in reference units
# a check's speed also counts the ticks this long before it started
WINDOW_S = 0.4

_rng = random.Random(5)
_MATRIX = [
    [Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(6)]
    for _ in range(6)
]
_POLY = {
    tuple(_rng.randint(0, 3) for _ in range(3)): Fraction(_rng.randint(-9, 9), 7)
    for _ in range(8)
}


def unit() -> None:
    """One reference unit: eliminate a 6x6 rational matrix and square an
    8-term polynomial in three variables."""
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if rows[r][col]:
                k = rows[r][col] / rows[col][col]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[col])]
    product = {}
    for ea, ca in _POLY.items():
        for eb, cb in _POLY.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            product[e] = product.get(e, 0) + ca * cb


class Pacer:
    """Runs reference units from a timer and keeps their count and time.

    ``ticks`` holds ``(end, units, seconds)`` of every tick: the time the
    units took in an interval, and the host's speed around it.
    """

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        units = 0
        while True:
            unit()
            units += 1
            elapsed = perf_counter() - start
            if elapsed >= SHARE * PERIOD_S:
                break
        self.ticks.append((start + elapsed, units, elapsed))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and forget the ticks, so later times are plain
        wall time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticks = []

    def _ticks(self, start: float, end: float) -> list:
        """The ticks that overlap the interval from ``start`` to ``end``."""
        ticks = self.ticks[bisect.bisect_left(self.ticks, (start,)):]
        return [t for t in ticks if t[0] - t[2] <= end]

    def paced(self, start: float, end: float) -> float:
        """Seconds the units took between ``start`` and ``end``."""
        return sum(
            min(end, t[0]) - max(start, t[0] - t[2]) for t in self._ticks(start, end)
        )

    def scale(self, start: float, end: float) -> float:
        """Factor that takes times between ``start`` and ``end`` to the
        reference speed the units measured then; 1 when none ran."""
        ticks = self._ticks(start, end)
        if not ticks:
            return 1.0
        return REFERENCE_UNIT_S * sum(t[1] for t in ticks) / sum(t[2] for t in ticks)

    def scaled(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """The time from ``start`` to ``end`` less the units' share, scaled
        to the speed the units measured from ``window`` before ``start``
        until ``end``."""
        seconds = end - start - self.paced(start, end)
        return self.scale(start - window, end) * seconds


PACER = Pacer()
