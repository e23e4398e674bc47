"""Scale wall times by how fast the machine runs Python at that moment.

On a shared host the same op can take about twice as long for seconds or
minutes at a time while a neighbour loads the core. Process CPU time slows
by the same factor, so it does not help. The benchmark therefore times a
fixed reference kernel, which does not use fracpid, between ops. It reports
each op's wall time multiplied by REF_S / (kernel time around that op).
A "scaled" second is thus the time the kernel would need for one second's
worth of REF_S-long runs. When the host is quiet, the kernel takes about
REF_S and scaled time is close to wall time. When the host slows everything
down, the kernel slows with it and scaled time stays put.
"""

from __future__ import annotations

import math
import statistics
import time

REF_S = 1e-3
ITERATIONS = 2250  # about 1 ms on a quiet 2-core x86 VM with CPython 3.11
REPEATS = 3


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(ITERATIONS):
        x = complex(i * 0.001, 1.0)
        acc += abs(x) + math.atan2(x.imag, x.real)
        table[i & 63] = (acc, i)
    return acc


def kernel_seconds() -> float:
    """Median wall time of REPEATS runs of the reference kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedTrack:
    """Kernel samples taken between ops, at most every ``every_s`` seconds
    of op time. Each op is scaled by the mean of the samples just before
    and just after it."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.samples = [kernel_seconds()]
        self.ops: list[tuple[float, int]] = []
        self._since = 0.0

    def before_op(self) -> None:
        if self._since >= self.every_s:
            self.samples.append(kernel_seconds())
            self._since = 0.0

    def record(self, op_s: float) -> None:
        self.ops.append((op_s, len(self.samples) - 1))
        self._since += op_s

    def scaled(self) -> list[float]:
        """Every recorded op time in scaled seconds; takes a final sample."""
        self.samples.append(kernel_seconds())
        k = self.samples
        return [op_s * REF_S / (0.5 * (k[j] + k[j + 1])) for op_s, j in self.ops]
