"""Calibrated timing.

The host's speed drifts by tens of percent within seconds, and raw
wall-clock times follow it.  So a fixed pure-Python kernel runs between
timed operations (or between segments of a few ms of short ones), and
each operation's time is divided by the mean of the two kernel runs
around it and multiplied by one fixed nominal kernel time.  Calibrated
times keep their units (s, ms, 1/s) and read as "time on a host where
the kernel takes NOMINAL_KERNEL_S".
"""

import statistics
import time

KERNEL_LOOPS = 8_000
NOMINAL_KERNEL_S = 0.002
# Operations shorter than this run back to back, as a batch of lines
# does in production, and share the kernels around their segment; the
# host's speed does not change much within a few milliseconds.
SEGMENT_S = 0.005


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_SMALL = {i: i * 7 for i in range(64)}
_SLOT = _Slot(3)


def _step(x, i):
    return (x * 31 + _SMALL.get(i & 63, 0) + _SLOT.value) & 0xFFFF


def kernel():
    """Seconds taken by a fixed pure-Python loop.

    Each step is a function call, a small dict lookup, an attribute load
    and integer arithmetic: the mix the program itself runs, so the host
    slows the kernel about as much as it slows the program (a plain
    arithmetic loop slows less).  The loop builds no containers, so the
    state of the program's heap cannot change its speed.
    """
    start = time.perf_counter()
    x = 0
    for i in range(KERNEL_LOOPS):
        x = _step(x, i)
    return time.perf_counter() - start


class Sampler:
    """Calibrates segments of timed work by the kernels around them.

    The caller times its calls itself and ends a segment with
    ``calibrate()``, which runs the kernel and returns the factor that
    turns the segment's raw times into calibrated ones: the nominal
    kernel time over the mean of the kernel runs before and after the
    segment.
    """

    def __init__(self):
        self.kernels = [kernel()]

    def calibrate(self):
        after = kernel()
        factor = NOMINAL_KERNEL_S / ((self.kernels[-1] + after) / 2)
        self.kernels.append(after)
        return factor

    def kernel_ms(self):
        return statistics.median(self.kernels) * 1e3

