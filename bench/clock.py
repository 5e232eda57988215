"""Host-speed calibration for timings on a shared machine.

The speed of a shared host's cores can change by a factor of two for tens
of seconds at a time, when other tenants load the machine.  Such a swing
moves every timing of a run together, and no amount of repetition inside
one run removes it.  ``HostClock`` measures it instead: between ops it
times a fixed pure-Python kernel (exact fractions and modular integers,
the arithmetic moddeg spends its time in) every ``INTERVAL`` seconds, and
``reference`` rescales an op's wall time by how much slower or faster that
kernel ran around the op than ``REF_S``.  A timing so scaled reads as the
wall time on a host where the kernel takes ``REF_S``; a change to moddeg
moves it in full, because the kernel does not call moddeg.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_S = 0.002       # the kernel's time on the reference host
INTERVAL = 0.02     # seconds between kernel samples while ops run
NEAREST = 4         # kernel samples that set the speed around one moment
_P = 32003


def kernel() -> int:
    """Gaussian elimination of a fixed 7 x 7 matrix over QQ and over
    GF(32003); a few thousand field operations and list manipulations."""
    n = 7
    rows = [[Fraction((i * 5 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4)
             for j in range(n)] for i in range(n)]
    mods = [[(i * 7919 + j * 104729) % _P for j in range(n)] for i in range(n)]
    rank = 0
    for mat, inv in ((rows, lambda v: 1 / v), (mods, lambda v: pow(v, -1, _P))):
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, n) if mat[i][c]), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            scale = inv(mat[r][c])
            mat[r] = [v * scale for v in mat[r]]
            for i in range(n):
                if i != r and mat[i][c]:
                    f = mat[i][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
                    if mat is mods:
                        mat[i] = [a % _P for a in mat[i]]
            r += 1
        rank += r
    return rank


class HostClock:
    """Kernel samples over a run, and the wall-to-reference scaling they
    give at any moment of it."""

    def __init__(self):
        self.moments: list[float] = []
        self.costs: list[float] = []
        self.last = float("-inf")

    def sample(self, count: int = 1):
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.moments.append((start + end) / 2)
            self.costs.append(end - start)
            self.last = end

    def tick(self):
        """Samples the kernel if ``INTERVAL`` has passed since the last one."""
        if time.perf_counter() - self.last >= INTERVAL:
            self.sample()

    def scale(self, moment: float) -> float:
        """REF_S over the median kernel time of the ``NEAREST`` samples
        closest to ``moment``."""
        i = bisect.bisect_left(self.moments, moment)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.moments)):
            if lo > 0 and (hi == len(self.moments)
                           or moment - self.moments[lo - 1] <= self.moments[hi] - moment):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.costs[lo:hi])

    def reference(self, start: float, elapsed: float) -> float:
        """The wall time ``elapsed`` from ``start``, at reference speed."""
        return elapsed * self.scale(start + elapsed / 2)
