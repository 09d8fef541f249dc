"""Spans and counts recorded by the benchmark around calls into `modesig`.

The library itself is not instrumented: every span wraps a call to a public
function, made from the benchmark's own replay of a workload.  Only the
total time per span name is kept; the run turns the totals into per-layer
metrics when it ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from modesig import DensityModel


class Tracer:
    """Wall-clock seconds and counts per name, kept in memory."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - t0

    def count(self, name: str, n: int = 1):
        self.counts[name] += int(n)

    def maximum(self, name: str, n: int):
        self.counts[name] = max(self.counts[name], int(n))


class CountingModel(DensityModel):
    """A DensityModel that counts the (query, sample) kernel pairs it evaluates.

    Every density, gradient and mean-shift evaluation goes through the
    kernel-weight matrix, so counting its rows times n counts the work.
    """

    def __init__(self, points, h: float):
        super().__init__(points, h)
        self.kernel_pairs = 0

    def _exp_weights(self, q):
        self.kernel_pairs += q.shape[0] * self.n
        return super()._exp_weights(q)
