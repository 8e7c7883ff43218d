"""Host-speed calibration for the benchmark's timings.

On a small shared host the speed of one vCPU drifts by up to half again
over tens of seconds, so raw times of the same code spread past any useful
bound. A fixed reference task, independent of crystalpop and made of the
kind of work crystalpop does (an interpreter loop, shifts and ANDs of
20,000-bit integers, dict stores), is run right before and right after each
timed operation. The operation's calibrated time is its raw time scaled by
NOMINAL_S over the mean of those two reference times: the time it would
take on a host that runs the reference in NOMINAL_S seconds.
"""

from __future__ import annotations

import time

_clock = time.perf_counter

# About the reference's time on an unloaded 2-vCPU Xeon at 2.1 GHz, Python 3.11.
NOMINAL_S = 0.012


def _reference_work() -> int:
    s = 0
    for i in range(60000):
        s += i * i % 7
    x = (1 << 20000) - 1
    y = 0
    low = {}
    for i in range(3000):
        y ^= (x >> (i % 97)) & (x << (i % 13))
        low[i] = (y & -y).bit_length()
    return s + len(low) + y.bit_length()


def reference_s() -> float:
    """Seconds the reference task takes now."""
    start = _clock()
    _reference_work()
    return _clock() - start


def scale(raw_s: float, references: list[float]) -> float:
    """raw_s at the nominal host speed, given references around it."""
    return raw_s * NOMINAL_S * len(references) / sum(references)


class Calibrated:
    """Sums the raw and the calibrated time of operations, each measured
    between two runs of the reference task."""

    def __init__(self):
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.references: list[float] = []

    def measure(self, fn, *args, **kwargs):
        before = reference_s()
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = _clock() - start
            after = reference_s()
            self.raw_s += raw
            self.calibrated_s += scale(raw, [before, after])
            self.references += [before, after]
