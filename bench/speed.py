"""Program time at a fixed reference speed of the core.

This benchmark runs on a core that shares its hardware with other
machines' work.  Whenever that work runs beside it, the same Python code
runs up to 1.6x slower.  Slow spells come and go every 5 to 50 ms, others
last tens of seconds, and how much of a minute they fill changes from
minute to minute.  A round's plain wall time therefore measures the
neighbour as much as the program: on a 2-vCPU Xeon, ten-second stretches
of a fixed loop differed by 1.6x in mean iteration time.

While a round is timed, a :class:`SpeedSampler` interrupts the program
every :data:`INTERVAL_S` of wall time (``SIGALRM`` from ``setitimer``) and
runs :func:`calibration`, a fixed loop of CPython float arithmetic, in the
signal handler.  The speed of the core at that sample is
:data:`REFERENCE_S` over the loop's duration: 1 when the core runs as fast
as an unshared core of that Xeon did.  A stretch of program time between
two samples counts its length times the mean speed of the two samples; the
time the samples themselves took is left out.  So a stretch that ran 1.5x
slow counts 1/1.5 of its length, and the sum is the program's time on the
reference core.  Alternating short nominal, spin-up and de-tumble runs
(about 5 ms each) with the loop in one process for 225 s, 15 s stretches
differed by up to 1.53x in a run's mean time and by up to 1.13x in its mean
time times the loop's mean speed.  Loops that also walk a table of 4k to 1M
entries did no better (1.09x to 1.19x) at three to five times the cost.

The sampler needs no hook into the program.  It costs the program about
0.5 % (the loop takes about 25 us every 5 ms, and its time is left out).
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.005
CALIBRATION_STEPS = 300
# The calibration loop's duration when the core runs alone: the 1st
# percentile of its durations between the program's steps in spin_mc rounds
# on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.  The slow spells there
# took it 35 to 42 us.
REFERENCE_S = 24.5e-6


def calibration() -> float:
    x, y, z = 0.1, 0.2, 0.3
    for _ in range(CALIBRATION_STEPS):
        x, y, z = y * z + 0.5, z - x * 0.25, (x + y) * 0.5
    return x


class SpeedSampler:
    """Samples the core's speed while it is entered; see the module text."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.speed: list[float] = []
        self._sampling = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._sampling:
            return  # the signal arrived while the previous sample ran
        self._sampling = True
        t0 = time.perf_counter()
        calibration()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._sampling = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speed = [REFERENCE_S / (e - s) for s, e in zip(self.starts, self.ends)]

    def sampled_seconds(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def reference_seconds(self, a: float, b: float) -> float:
        """Program time between the ``perf_counter`` readings ``a`` and ``b``
        at the reference speed.  Before the first sample and after the last
        the speed of that sample holds; with no sample, the speed is 1."""
        starts, ends, speed = self.starts, self.ends, self.speed
        n = len(starts)
        if n == 0:
            return b - a
        # Program stretch k runs from ends[k-1] to starts[k]; stretch 0 from
        # -inf, stretch n to +inf.
        total = 0.0
        for k in range(bisect_right(ends, a), bisect_left(starts, b) + 1):
            lo = ends[k - 1] if k > 0 else a
            hi = starts[k] if k < n else b
            if k == 0:
                v = speed[0]
            elif k == n:
                v = speed[n - 1]
            else:
                v = 0.5 * (speed[k - 1] + speed[k])
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0.0:
                total += overlap * v
        return total
