"""A host speed meter, so that timings survive a host whose speed drifts.

On a shared machine the same pure-Python work can take twice as long from one
ten-second stretch to the next (other tenants, clock changes). The meter runs a
fixed exact-arithmetic kernel, independent of the library, every ``INTERVAL_S``
between instances (and between the stages of long instances), and rescales each
stretch of measured time by ``NOMINAL_S / kernel time`` around it. A scaled
time reads as the time the work would take on a host where the kernel takes
``NOMINAL_S``. Raw times are kept next to the scaled ones in the run record.
"""
from __future__ import annotations

import bisect
import time
from fractions import Fraction

NOMINAL_S = 0.015
INTERVAL_S = 0.2

# A 13x13 elimination grows its rationals enough to exercise big-integer
# arithmetic and allocation the way the library's exact LPs do. Repeating the
# same 18 gf-audit instances eight times, rescaled totals spread (standard
# deviation over mean) 5% with a 7x7 kernel where raw totals spread 9%, and
# 1.5% with this one where raw totals spread 11%.
_MATRIX = tuple(
    tuple(Fraction((13 * i + 7 * j) % 19 + 1, (3 * i + 5 * j) % 11 + 1) for j in range(13)) for i in range(13)
)


def _kernel() -> None:
    """Gauss-Jordan elimination of a fixed 13x13 rational matrix."""
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


class SpeedMeter:
    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._durations: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._durations.append(end - start)

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` minus the samples inside it, each stretch between
        samples rescaled by the mean of the samples on either side of it.
        Needs a sample before ``start`` and one after ``end``."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._ends, end)
        if first == 0 or last >= len(self._starts):
            raise ValueError("no speed sample on both sides of the interval")
        total = 0.0
        left = start
        for k in range(first, last + 1):
            right = self._starts[k] if k < last else end
            before, after = self._durations[k - 1], self._durations[k]
            total += (right - left) * NOMINAL_S / ((before + after) / 2)
            left = self._ends[k]
        return total
