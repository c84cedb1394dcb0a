"""Speed-normalized seconds.

On a shared two-CPU Xeon virtual machine the CPU speed drifts between states
about 30% apart, often for tens of seconds at a time, in CPU time as much as
in wall time.  While a task runs, `SpeedSampler` times a fixed
interpreter kernel every SAMPLE_INTERVAL_S from a SIGALRM handler in the
same thread; the kernel's mean time says how fast the machine ran the task,
and `normalized` scales the task's time to REFERENCE_KERNEL_S per kernel.
The kernel is the benchmark's own code, so a faster package still shows.
"""

import math
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 0.0005  # typical kernel time on that two-CPU Xeon machine


def speed_kernel():
    """Fixed interpreter work (float math, small Fractions): about 0.5 ms."""
    acc, frac = 0.0, Fraction(0)
    for i in range(1, 120):
        acc += math.sqrt(i) * 0.5
        frac += Fraction(1, i % 7 + 1)
    return acc, frac


class SpeedSampler:
    """Collects kernel times in `samples` while the `with` block runs."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        speed_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def normalized(elapsed: float, samples, earlier=()):
    """(seconds at the reference speed, seconds without the sampler, mean kernel time).

    A span too short for a sample takes its speed from `earlier` samples.
    """
    kernel = statistics.fmean(samples or earlier or [REFERENCE_KERNEL_S])
    raw = elapsed - sum(samples)
    return raw * REFERENCE_KERNEL_S / kernel, raw, kernel
