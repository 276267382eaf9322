"""Host-speed reference: a fixed kernel timed between the measured calls.

The benchmark shares a few cores of a host whose speed drifts by tens
of percent over minutes, so two runs of the same code can differ more
than any bound worth having.  The drift slows the reference kernel as
much as it slows bistar, so a time divided by the kernel's time just
before and after it no longer carries the drift.  `to_baseline`
rescales such a time to the host speed at which the kernel takes
``BASELINE_S``, which keeps the metrics in seconds.

The kernel mixes what bistar's stages spend their time on: scalar
Python arithmetic, many small numpy calls and a mid-size complex FFT.
Its inputs are fixed, so it does the same work in every run; it runs
no bistar code, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

# Median kernel time on the baseline machine (perfbench/README.md).
BASELINE_S = 0.1

_SIGNAL = np.random.default_rng(3).standard_normal(1 << 17) + 1j


def kernel() -> float:
    """Fixed work: a scalar loop, small numpy calls and FFT round trips."""
    r = random.Random(7)
    table = {}
    total = 0.0
    for i in range(60000):
        x = r.random()
        total += math.sqrt(x) * math.cos(x)
        table[i & 255] = total
    small = np.random.default_rng(7)
    for _ in range(3000):
        v = small.standard_normal(8)
        total += float(np.arctan2(v[0], v[1]) + np.linalg.norm(v))
    for _ in range(6):
        spectrum = np.fft.fft(_SIGNAL) * _SIGNAL.conj()
        total += float(np.abs(np.fft.ifft(spectrum)).max())
    return total


def time_kernel() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_baseline(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    rescaled to the host speed at which the kernel takes BASELINE_S."""
    return seconds * BASELINE_S / (0.5 * (before + after))
