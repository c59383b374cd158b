"""Host speed probe for the radar benchmark.

On a shared machine the speed of the CPU drifts by tens of percent within
seconds to minutes, and a benchmark run cannot see why. The probe is a fixed
loop of pure-Python double-double arithmetic, the same kind of work as the
library's hot paths, that no change to singradar can touch. The benchmark
samples it right before and right after every timed job and scales the
job's time to a host on which the probe takes REFERENCE_S. Scaling each job
by its own neighbouring samples follows the drift more closely than one
factor per run; the benchmark reports the unscaled times beside the scaled.
"""

from __future__ import annotations

import time

# probe time on the host the benchmark was defined on (2-core x86-64 VM,
# Python 3.11); only the ratio to it matters
REFERENCE_S = 0.020
# probes per speed sample
SAMPLE_PROBES = 2
_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


class _DD:
    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    def __add__(self, other):
        s, e = _two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        hi = s + e
        return _DD(hi, e - (hi - s))

    def __mul__(self, other):
        p, e = _two_prod(self.hi, other.hi)
        e += self.hi * other.lo + self.lo * other.hi
        hi = p + e
        return _DD(hi, e - (hi - p))


def probe() -> float:
    """Seconds one fixed double-double recurrence takes on this host now."""
    begin = time.perf_counter()
    acc, x, step = _DD(0.0), _DD(0.999999, 1e-20), _DD(1e-3)
    for _ in range(15000):
        acc = acc * x + step
    return time.perf_counter() - begin


def sample() -> float:
    """Mean probe time over SAMPLE_PROBES probes."""
    return sum(probe() for _ in range(SAMPLE_PROBES)) / SAMPLE_PROBES


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference speed, given the speed samples around it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
