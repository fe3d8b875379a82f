"""Timing at a fixed reference speed, for hosts shared with other tenants.

On a shared host, other tenants slow CPU-bound Python by up to 2x for
seconds at a time, and thread CPU time slows as much as wall time, so
neither measures the program alone.  ``Clock`` times a fixed kernel
between every two operations: a Taylor shift x -> x + 1 of a degree-299
polynomial with 32-bit coefficients, written here in plain Python, the
same kind of big-integer work ``rootiso`` does.  An operation's wall time
is scaled by ``REF_KERNEL_S`` over the mean of the kernel times just
before and just after it.  A slower host stretches both by about the same
factor, so the scaled time is about what the operation takes on a host
where the kernel takes ``REF_KERNEL_S``; a program that does less work
still reads faster, since the kernel does not change with it.
"""

from __future__ import annotations

import random
import time

# the kernel's time on an otherwise idle 2-vCPU Xeon VM, rounded
REF_KERNEL_S = 0.003

_rng = random.Random(20220214)
_COEFFS = tuple(_rng.randrange(-(1 << 31), 1 << 31) for _ in range(300))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    c = list(_COEFFS)
    n = len(c)
    t0 = time.perf_counter()
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
    return time.perf_counter() - t0


class Clock:
    """Times calls at reference speed.  Every call to ``time`` runs the
    kernel once after the timed call; the kernel run before it is the one
    the previous ``time`` (or the constructor) made."""

    def __init__(self):
        kernel_seconds()  # warm-up
        self._last = kernel_seconds()

    def time(self, fn):
        """Run ``fn``; return (its result, wall seconds, scaled seconds)."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        kernel = kernel_seconds()
        scaled = wall * REF_KERNEL_S / (0.5 * (self._last + kernel))
        self._last = kernel
        return out, wall, scaled
