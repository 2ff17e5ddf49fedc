"""Machine-speed calibration: a fixed reference kernel timed between operations.

On a shared host a core can run at little more than half speed for
fractions of a second to seconds at a time (a neighbour on its sibling
hardware thread is busy).  The share of slow time in a 30 s window varies
from run to run, so on a 2-core shared container raw sweep times of
identical work spread by 20 to 30% between runs.  The slowdown hits the
program and this kernel nearly alike, because both are a mix of
interpreter work and small numpy calls.  ``Meter`` times each operation
and, after every ``SAMPLE_EVERY_S`` of operation time, times one call of
the kernel.  Dividing a sweep's time by the mean kernel time around it (the
samples taken between its operations and right before its first one), and
multiplying by ``REFERENCE_KERNEL_S``, gives the time at a fixed reference
speed.  The kernel uses only Python and numpy, never the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time that defines the reference speed: the kernel's time on an
# uncontended core of a 2-core shared x86-64 container with Python 3.11 and
# numpy 2.4 (on a contended core it takes 3.1 to 3.6 ms).
REFERENCE_KERNEL_S = 1.9e-3
SAMPLE_EVERY_S = 0.05

_EXPONENT = 0.75 + 14.25j
_LOG_N = np.log(np.arange(1.0, 1025.0))
_SIGNAL = np.cos(np.arange(4096) * 0.37) + 1j * np.sin(np.arange(4096) * 0.11)


def reference_kernel() -> complex:
    """Fixed work: a Python loop of complex powers, a numpy Dirichlet row, FFTs."""
    acc = 0j
    for n in range(1, 800):
        acc += n ** -_EXPONENT
    acc += complex(np.exp(-_EXPONENT * _LOG_N).sum())
    x = _SIGNAL
    for _ in range(16):
        x = np.fft.ifft(np.fft.fft(x) * 0.5)
    return acc + complex(x[0])


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Meter:
    """Times operations and samples the machine's speed between them."""

    def __init__(self):
        self.busy = 0.0             # seconds spent inside timed calls
        self.samples: list[float] = []
        self.trailing = 0           # samples taken right after the last call
        self._due = 0.0
        reference_kernel()          # the first call pays numpy's lazy set-up

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` and add its duration to ``busy``; exceptions propagate.

        Kernel samples due by then are taken after the call, outside it.
        """
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.busy += elapsed
            self._due += elapsed
            self.trailing = 0
            while self._due >= SAMPLE_EVERY_S:
                self._due -= SAMPLE_EVERY_S
                self.samples.append(time_kernel())
                self.trailing += 1

    def window_start(self) -> int:
        """Index of the first sample of the stretch that starts now.

        It includes the samples taken right after the last call, which ran
        just before the stretch's first call.
        """
        return len(self.samples) - self.trailing

    def sample(self, n: int) -> None:
        """Take ``n`` kernel samples now."""
        self.samples.extend(time_kernel() for _ in range(n))

    def scale(self, start: int = 0) -> float:
        """Factor that converts a time measured since sample ``start`` to the
        reference speed; all samples if none was taken since."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[start:] or self.samples)
