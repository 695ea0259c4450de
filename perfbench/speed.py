"""A machine-speed probe, to take the host's speed out of the timings.

The benchmark was written on a small VM that shares its host. There the same
pure-Python work ran up to 60% slower in one run than in another, and its
speed drifted by 30% within a few seconds of one run. Raw times therefore
said more about the host than about abcosp.

So the worker runs a fixed probe between items, about every
``EVERY_S`` seconds of item work, and scales each item's time by the
host's speed at that moment: ``REFERENCE_S / probe time``, with the probe
times smoothed by a running median. A scaled time reads "milliseconds on a
host where the probe takes ``REFERENCE_S``". The probe is plain exact
Gaussian elimination over Q and GF(3), the same kind of work as the
library's, written here and never calling abcosp. A change to abcosp leaves
it alone, so a faster library shows in full.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from workloads import _rank

# Probe time of a calm host, the one the benchmark was written on; the
# scaled figures are in milliseconds of that host.
REFERENCE_S = 0.0007
# Seconds of item work between two probes.
EVERY_S = 0.02
# Probes in the running median that smooths the speed estimate.
SMOOTH = 7

_rng = random.Random(20051062)
_QQ = [[Fraction(_rng.randint(-5, 5), _rng.randint(1, 4)) for _ in range(7)] for _ in range(6)]
_GF3 = [[_rng.randrange(3) for _ in range(12)] for _ in range(10)]


def _kernel() -> None:
    _rank(_QQ, 0)
    _rank(_GF3, 3)


class Probes:
    """Probe times in the order taken."""

    def __init__(self):
        _kernel()  # the first call in a fresh interpreter is not counted
        self.times = []

    def take(self, n: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            _kernel()
            self.times.append(clock() - t0)

    @property
    def count(self) -> int:
        return len(self.times)

    def factor(self) -> float:
        """One scale factor from the median of all probes."""
        return REFERENCE_S / statistics.median(self.times)

    def window_factors(self) -> list:
        """Scale factor of window k, the item work between probe k and
        probe k + 1, from the smoothed probe times at its two ends."""
        t = self.times
        half = SMOOTH // 2
        smooth = [statistics.median(t[max(0, k - half):k + half + 1]) for k in range(len(t))]
        return [2 * REFERENCE_S / (smooth[k] + smooth[k + 1]) for k in range(len(t) - 1)]
