"""Machine-speed correction for timed intervals.

The host's speed drifts by up to 1.8x on identical work, over seconds to
minutes, and this drift, not the code, dominated run-to-run spread.  Every
timed interval is therefore reported at nominal speed: its wall time times
NOMINAL_KERNEL_S over the mean time of a fixed kernel sampled just before
it, every PERIOD_S while it runs, and just after it.  Samples taken while
it runs are interrupts between bytecodes; their time is taken out of the
interval.  Raw wall times and kernel times stay in the run record.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

NOMINAL_KERNEL_S = 0.015
PERIOD_S = 0.5
_X = np.linspace(-3.0, 0.0, 2**14) + 1j * np.linspace(0.0, 50.0, 2**14)


def kernel_seconds():
    """Time of a fixed complex-exp kernel, the library's hot loop."""
    t = time.perf_counter()
    for _ in range(40):
        np.exp(_X)
    return time.perf_counter() - t


class Probe:
    """Kernel samples taken from SIGALRM while an operation runs."""

    def __init__(self):
        self.active = False
        self.samples = []
        self.paused = 0.0
        self.pauses = []    # (start, end) of every in-operation sample

    def _on_alarm(self, signum, frame):
        if not self.active:
            return
        self.active = False  # an alarm during the sample must not nest
        t = time.perf_counter()
        self.samples.append(kernel_seconds())
        end = time.perf_counter()
        self.paused += end - t
        self.pauses.append((t, end))
        self.active = True

    @contextlib.contextmanager
    def installed(self):
        """Arm the interval timer for the duration of the block."""
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextlib.contextmanager
    def sampling(self):
        """Collect samples for one operation."""
        self.samples = []
        self.paused = 0.0
        self.active = True
        try:
            yield self
        finally:
            self.active = False
