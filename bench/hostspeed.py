"""Host-speed correction for the timed phase.

The benchmark's reference host is a shared virtual machine whose speed swings
by up to 1.7x, in phases of tens of seconds to minutes, with no CPU steal
visible from inside: a fixed operation timed over and over alternates between
about 0.09 s and 0.16 s, and CPU time follows wall time.  The phases are longer
than a run, so no statistic over one run's raw times is steady from run to run.

So every timed operation is bracketed by a short fixed calibration loop, and
its wall (and CPU) time is scaled by ``REFERENCE_S`` over the mean of the two
calibration times: the operation's time at the host speed at which the loop
takes ``REFERENCE_S``.  The loop is code of the benchmark's own, the same
kind of work as the program's hot path (combining dict-keyed mass functions,
small numpy draws), so it slows with the host as the program does; a change
to the program does not change it.  On a ten-minute record of ``many_states``
operations the correction brought the spread of a 30-second window's result
from 0.13 (raw medians) to 0.03.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the time of one calibration() on the reference host
# (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6), whose median per
# measured run ranged over 1.9-3.8 ms.  Corrected times are in seconds at the
# host speed at which the loop takes this long.
REFERENCE_S = 0.003
_FOCAL = 15  # subsets of a 4-state frame, as in a mass function's focal sets
_DRAWS = 100
_REPEATS = 64


def _loop() -> float:
    rng = np.random.default_rng(1)
    total = 0.0
    for rep in range(_REPEATS):
        m1 = {s: 1.0 / (s + rep + 1) for s in range(1, _FOCAL + 1)}
        m2 = {s: 1.0 / (s + 2) for s in range(1, _FOCAL + 1)}
        out: dict[int, float] = {}
        for s1, v1 in m1.items():
            for s2, v2 in m2.items():
                common = s1 & s2
                if common:
                    out[common] = out.get(common, 0.0) + v1 * v2
        gates = rng.random(_DRAWS)
        total += sum(out.values()) + float(np.flatnonzero(gates < 0.05).size)
    return total


def calibration() -> float:
    """Seconds that one pass of the fixed calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
