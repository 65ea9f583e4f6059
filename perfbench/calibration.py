"""A fixed load that tracks how fast this machine runs right now.

On a shared VM a busy neighbour slows the core by up to about 1.8x, in
stretches of seconds to minutes.  The program's timings move with it, so
a raw latency says as much about the neighbour as about the code.

``calibrate`` times a fixed piece of work that never calls the program
but does the three kinds of work the program does: shift-xor on
11779-bit Python integers (the circulant products), interpreter loops
over a small dict, and a numpy gather-sum (the decoder's counts).
Workloads time it once per cycle.  ``scale`` turns a raw sample into
calibrated ms: the raw ms times ``REF_MS`` over the median calibration
time of the cycles around the sample.  That is the time the operation
would take with the machine at the speed where the calibration takes
``REF_MS``.  A change to the program moves its samples, never the
calibration.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

import numpy as np

# About the median calibration time over the runs in NOTES.md (2-vCPU VM,
# Intel Xeon, Python 3.11): only ratios to it matter, and it keeps
# calibrated ms near wall-clock ms there.  The fastest stretches read 2.3.
REF_MS = 4.0
HALF_WINDOW = 4  # calibrations on each side of a sample, about 2 s in all

_R = 11779
_rnd = random.Random(20221128)
_WORD = _rnd.getrandbits(_R)
_SHIFTS = [_rnd.randrange(1, _R) for _ in range(900)]
_MASK = (1 << _R) - 1
_np_rng = np.random.default_rng(20221128)
_BITS = _np_rng.integers(0, 2, _R, dtype=np.int32)
_GATHER = _np_rng.integers(0, _R, (48, _R))


def _work() -> int:
    acc = 0
    for s in _SHIFTS:
        acc ^= ((_WORD << s) | (_WORD >> (_R - s))) & _MASK
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return acc.bit_count() + len(counts) + int(_BITS[_GATHER].sum())


def calibrate() -> float:
    """Milliseconds the fixed load takes now."""
    t0 = perf_counter_ns()
    _work()
    return (perf_counter_ns() - t0) / 1e6


def scale(cal: list[float], at: int) -> float:
    """Factor from raw to calibrated ms for a sample taken after ``cal[at]``."""
    window = cal[max(0, at - HALF_WINDOW):at + HALF_WINDOW + 1]
    return REF_MS / statistics.median(window)
