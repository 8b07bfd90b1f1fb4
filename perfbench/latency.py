"""Latency summaries: the median and the tail percentile."""
from __future__ import annotations

from bisect import bisect_right

TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Percentiles use the nearest-rank rule: the p-th percentile of n sorted
    samples is the one at rank ceil(p * n / 100).  Returns (p, value, number
    of samples strictly above the value).  Needs at least eleven samples.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        value = xs[-(-p * n // 100) - 1]
        beyond = n - bisect_right(xs, value)
        if beyond >= TAIL_BEYOND:
            return p, value, beyond
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
