"""CPU-speed gauge: times a fixed reference kernel alongside the program.

On a shared host the speed of a vCPU drifts, by up to about 2x in spells
that last from a second to several minutes, so the wall time of the same
operation on the same inputs moves with the machine as much as with the
program.  While a :class:`SpeedGauge` is active, a ``SIGALRM`` timer
interrupts the operation every ``PERIOD_S`` seconds and the handler times
one warm pass of :func:`reference_kernel`: a fixed mix of pure-Python
arithmetic, small-matrix numpy calls and a mid-size BLAS product, the
kinds of work the CPU-bound workloads do.  The kernel touches neither the
program nor its state, and it runs in the main thread between bytecodes,
so it never overlaps the operation.

:meth:`SpeedGauge.scaled` turns a time measured under the gauge into
seconds at the reference speed, ``seconds * REFERENCE_S / mean(kernel
times)``.  REFERENCE_S is a fixed constant of the order of the kernel's
time on the 2-vCPU VM the benchmark was tuned on (1.6-2.2 ms there); it
only sets the unit.  A change to the program moves the scaled time
as it moves the wall time; a change in the speed of the CPU moves the
kernel's time as well and cancels out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds one warm pass of reference_kernel() takes at the reference speed.
REFERENCE_S = 0.0025
# Seconds between kernel passes during an operation; a pass costs ~3 % of it.
PERIOD_S = 0.1
# Share of the kernel times dropped at each end before averaging them.
TRIM = 0.1

_SMALL = np.linspace(-0.1, 0.1, 64).reshape(8, 8) + np.eye(8)
_MID = np.linspace(-1.0, 1.0, 192 * 192).reshape(192, 192)


def reference_kernel() -> float:
    """One fixed pass of Python, small-numpy and BLAS work; returns a checksum."""
    acc = 0.0
    for i in range(8000):
        acc += (i % 7) * 0.5
    a = np.eye(8)
    for _ in range(150):
        a = _SMALL @ a
        a = a / np.abs(a).max()
    m = _MID @ _MID.T
    return acc + float(a[0, 0]) + float(m[0, 0])


def time_kernel() -> float:
    """Seconds one warm pass of the reference kernel takes now.

    The first of two passes only loads the kernel's code and data into the
    caches, which the program may have just filled with its own: the
    second then times the CPU's speed, not the program's memory use.
    """
    reference_kernel()
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class SpeedGauge:
    """Samples the kernel's time before, during and after a timed block.

    ``work_s`` is the block's wall time without the passes made inside it.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.inside = 0.0
        self.work_s = 0.0

    def _interrupt(self, *_):
        t0 = perf_counter()
        self.samples.append(time_kernel())
        self.inside += perf_counter() - t0

    def __enter__(self):
        self.samples.append(time_kernel())
        self._prev = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev)
        self.work_s = perf_counter() - self._t0 - self.inside
        self.samples.append(time_kernel())
        return False

    def kernel_s(self) -> float:
        """Trimmed mean kernel time over the block: its average CPU speed.

        A pass that a timer interrupt or a page fault hits can take several
        times the usual; trimming keeps a few such passes from moving the
        mean of a hundred.
        """
        s = sorted(self.samples)
        k = int(len(s) * TRIM)
        return statistics.fmean(s[k:len(s) - k])

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured under this gauge, at the reference speed."""
        return seconds * REFERENCE_S / self.kernel_s()
