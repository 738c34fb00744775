"""Host speed, sampled while the workload runs, to normalise host time.

A shared host's speed drifts: on a 2-vCPU VM the same call of the same
seed has taken anywhere from 1.0x to 1.4x its fastest time, in stretches
of tens of seconds, because other tenants contend for the same cores. A fixed
kernel timed before or after a call cannot see that, so ``SpeedProbe``
times a short kernel on a wall-clock timer *during* the call, in the
workload's own thread. Host time multiplied by the mean of
``REFERENCE_S / kernel time`` over the call is the time the call would
have taken at the reference speed: the speed at which the kernel takes
``REFERENCE_S``. The kernel only does integer arithmetic, so it
allocates nothing the garbage collector tracks and cannot shift when
the workload's collections happen.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: Loop steps in one kernel run.
KERNEL_STEPS = 10_000

#: Seconds one kernel run takes at the reference speed, measured on a
#: 2-vCPU x86-64 VM with CPython 3.11 in a quiet stretch.
REFERENCE_S = 1.7e-3

#: Seconds between two samples while a call runs.
PERIOD_S = 0.25


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Seconds one run of the fixed integer kernel takes right now."""
    started = time.perf_counter()
    x = 1
    for __ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - started


class SpeedProbe:
    """Times the kernel every PERIOD_S seconds between :meth:`start` and
    :meth:`stop`, on a SIGALRM timer: only for the main thread of a
    single-threaded process."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Seconds the samples took inside the measured window.
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling and take one more sample, after the window."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.spent = sum(self.samples)
        self.samples.append(kernel())

    def normalise(self, seconds: float) -> float:
        """*seconds* of host time measured between start and stop, less
        the samples' own time, at the reference speed."""
        factors = [REFERENCE_S / sample for sample in self.samples]
        return (seconds - self.spent) * sum(factors) / len(factors)
