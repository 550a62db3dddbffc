"""Speed reference and summary statistics for the benchmark.

On a small shared VM the speed of a fixed computation drifts by up to
1.5x between windows of a few seconds, and both numpy kernels and plain
Python slow down together.  The benchmark therefore times a fixed
reference computation between operations (at most every 30 ms) and
before and after every set-up, and reports each sample scaled to the
speed at which the reference takes REF_NOMINAL_S:

    scaled = raw * REF_NOMINAL_S / mean of the reference times either side

The reference never calls dynsp.  It mixes the kinds of work
dynsp does: uint64 arithmetic on arrays, many numpy calls on short
arrays, small float matrix products (BLAS) and an interpreted Python
loop over a dict.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median reference time on the machine the bounds were set on (see
# README.md); scaled times read as milliseconds on that machine.
REF_NOMINAL_S = 0.0009


class RefClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(20101013)
        self._words = rng.integers(0, 1 << 61, 8192, dtype=np.uint64)
        self._mat = rng.random((64, 64))

    def _work(self) -> int:
        w = self._words
        for _ in range(6):
            w = (w * np.uint64(0x9E3779B97F4A7C15)) ^ (w >> np.uint64(29))
        small = self._words[:64]
        for _ in range(60):
            small = np.where(small >= w[:64], small - w[:64], small + w[:64])
        m = self._mat
        for _ in range(6):
            m = m @ self._mat
            m /= m[0, 0]
        acc, table = 0, {}
        for i in range(1500):
            table[i & 511] = acc
            acc = (acc * 31 + i) & 0xFFFFFFFF
        return int(small[0]) ^ acc

    def measure(self) -> float:
        """Seconds for one reference computation: the faster of two."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


def tail_rank(count: int, q: float) -> int | None:
    """0-based nearest-rank index of the q-quantile, or None when fewer
    than ten samples lie beyond it (then the tail is not reported)."""
    rank = math.ceil(q * count) - 1
    if rank < 0 or count - 1 - rank < 10:
        return None
    return rank


def quantile(values, q: float) -> float | None:
    xs = sorted(values)
    if q == 0.5:
        return statistics.median(xs) if xs else None
    rank = tail_rank(len(xs), q)
    return None if rank is None else xs[rank]
