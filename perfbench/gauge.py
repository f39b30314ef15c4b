"""Machine-speed gauge: a fixed kernel timed between samples.

The host under the benchmark changes speed by a fifth and more over tens of
seconds (a fixed mpmath series read 0.65-1.18 of its median in 10 s buckets
over four minutes), and process time moves with wall time, so it is the
processor that slows, not the scheduler.  tfedge's time goes to pure-Python
arithmetic (mpmath's big-integer mantissas, complex floats, per-node
loops), so a kernel of the same kind slows with it: timed alternately over
those four minutes, tfedge's Mittag-Leffler calls over the time of kernels
of these kinds spread by 0.015-0.05 (standard deviation over mean of the
10 s medians), against 0.13-0.14 for their raw times.

The run calls tick() between samples; it runs the kernel when TICK_S have
passed since the last run.  Each timing is then scaled to the reference
speed,

    scaled = seconds * REF_S / (median kernel time near it).

A sample's kernel runs are those within WINDOW_S of it; a round is the sum
of its scaled samples plus the rest of its time (fits, closed forms, the
sweep's own work) scaled by the kernel runs from the tick before the round
to the tick after it.  Offline on ten runs of each workload, scaling each
sample by its own window rather than each round by its stretch cut the
spread of `transport-a0.5`'s figures from 0.10-0.12 to 0.06-0.09, and ten
fresh runs read 0.08-0.10 (its runs hold two 10 s rounds, and the host's
speed changes within a round).

Set-up is not scaled: its table build is one call with no tick inside, and
its import and numpy/ARPACK work do not follow the kernel (scaled by the
run's median kernel time, set-up spread more between runs than unscaled).
A change to tfedge moves a scaled figure as it moves the wall time; the
kernel calls the benchmark's own mpmath series, not tfedge, so no change to
tfedge can move the gauge.  Kernel time never counts in a timed interval:
ticks sit between samples, and the run subtracts those that fall inside a
round.
"""

from __future__ import annotations

import cmath
import statistics
from time import perf_counter

from oracles import ml_series

# about the kernel's median between samples on the reference machine
# (README.md), so that scaled figures read as seconds there
REF_S = 0.030
TICK_S = 0.4
# a sample is scaled by the kernel runs within this many seconds of it
WINDOW_S = 1.0


def kernel():
    """Fixed work of the two kinds tfedge does, about 23 ms on the reference
    machine: the mpmath power series of E_{1/2,1/4} at |z| = 5 (about 21 ms),
    then a loop of complex float arithmetic."""
    value = ml_series(0.5, 0.25, cmath.rect(5.0, 0.9))
    w, acc = complex(0.3, 0.4), 0j
    for i in range(1, 3000):
        w = w * complex(0.9, 0.1) + 1.0 / i
        acc += w.real * w.imag + abs(w)
    return value, acc


class Gauge:
    def __init__(self):
        self.marks = []  # (start, end) of each kernel run, in time order
        self._last = None

    def tick(self, force: bool = False):
        """Run the kernel if TICK_S have passed since the last run (or force)."""
        if not force and self._last is not None and perf_counter() - self._last < TICK_S:
            return
        start = perf_counter()
        kernel()
        self._last = perf_counter()
        self.marks.append((start, self._last))

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end]."""
        return sum(b - a for a, b in self.marks if start <= a and b <= end)

    def near(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end]; the whole
        run's if no kernel ran there."""
        near = [b - a for a, b in self.marks
                if start - WINDOW_S <= 0.5 * (a + b) <= end + WINDOW_S]
        return statistics.median(near) if near else self.median_s()

    def scaled_at(self, seconds: float, start: float, end: float) -> float:
        """seconds at the reference speed, by the kernel runs near [start, end]."""
        return seconds * REF_S / self.near(start, end)

    def median_s(self, first: int = 0, last: int | None = None) -> float:
        """Median kernel time over marks[first:last]."""
        return statistics.median(b - a for a, b in self.marks[first:last])

    def scaled(self, seconds: float, first: int, last: int) -> float:
        """seconds at the reference speed, by the kernel runs marks[first:last]."""
        return seconds * REF_S / self.median_s(first, last)
