"""A fixed reference kernel, timed around every op to scale its latency.

The small VMs the benchmark was tuned on change speed by up to 1.8x for
seconds at a time (the same verdict takes 115 ms, then 200 ms, with no
steal time reported), so raw medians of one run move with the moment it
ran. Every op is bracketed by this kernel, which never calls qsde, and its
latency is scaled by REF_MS / (mean of the two kernel times): the op's time
at the kernel's reference speed. The kernel mixes an interpreter loop with
4x4 numpy linear algebra, the two kinds of work a verdict does; run.py,
which never imports numpy, uses the loop alone.
"""

from __future__ import annotations

import statistics
import time

LOOP = 40_000
LINALG = 60
# one run can catch an interrupt; the median of three cannot so easily
REPEATS = 3
# kernel milliseconds at the reference speed: about the 10th percentile of
# kernel_ms on a 2-vCPU VM (Python 3.11.7, numpy 2.4.6 with scipy-openblas,
# one BLAS thread), so scaled latencies read close to raw ones in its fast
# phase
REF_MS = {"loop": 2.2, "loop+linalg": 3.0}

_matrix = None


def kernel_ms(np=None) -> float:
    """Median milliseconds of REPEATS kernel runs; with numpy given, the linear-algebra part too."""
    return statistics.median(_once(np) for _ in range(REPEATS))


def _once(np) -> float:
    global _matrix
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    if np is not None:
        if _matrix is None:
            a = np.arange(16.0).reshape(4, 4)
            _matrix = (a + a.T) + 1j * (a - a.T) / 7.0
        for _ in range(LINALG):
            e, v = np.linalg.eigh(_matrix)
            (v * e) @ v.conj().T
    return 1e3 * (time.perf_counter() - t0)


def scale(before_ms: float, after_ms: float, with_linalg: bool) -> float:
    """Factor taking a latency measured between two kernel runs to the reference speed."""
    return REF_MS["loop+linalg" if with_linalg else "loop"] / (0.5 * (before_ms + after_ms))
