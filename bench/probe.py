"""Machine speed, sampled while the benchmark runs.

The machine this benchmark was written on is shared: the speed it gives one
process switches between two states about 1.5x apart, in phases of 1 to 15
seconds, independently on each of its two CPUs.  A 20-second operation can
therefore take 25% longer on one run than on the next with no change in
the program, which no choice of statistic over a few operations removes.

`SpeedProbe` runs a fixed interpreter-bound kernel of about a millisecond
from a SIGALRM handler every PERIOD seconds.  `slowdown(t0, t1)` is the
kernel's mean time around an interval divided by its nominal time,
REFERENCE_S; an interval's duration divided by its slowdown is the duration
it would have had at the nominal speed.  fbsig's time goes to the
interpreter, and its slow phases track the kernel's: over five seeds one
verdict read 12.88-13.10 s scaled while the runs took 14.0-16.7 s raw.  A
kernel of small numpy operations tracked them worse; its own time depends
on memory layout.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between samples.
PERIOD = 0.1
#: Samples this far outside an interval still count for it, so that an
#: operation shorter than PERIOD has samples.  Speed phases last seconds.
HALO = 0.25
#: Nominal time of one kernel call: its fast-phase median on the 2-core
#: machine of the reference figures in README.md.
REFERENCE_S = 8e-4


def _kernel():
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Kernel timings taken every PERIOD seconds while started."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0, t1):
        """Mean kernel time around [t0, t1] over REFERENCE_S."""
        lo = bisect.bisect_left(self.starts, t0 - HALO)
        hi = bisect.bisect_right(self.starts, t1 + HALO)
        return statistics.fmean(self.durations[lo:hi]) / REFERENCE_S
