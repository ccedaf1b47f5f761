"""Summary statistics shared by the runner and its self-test."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


def tail(samples) -> tuple:
    """(value, percentile) of the highest nearest-rank percentile that has at
    least TAIL_BEYOND samples beyond it, but never below the median. The p-th
    nearest-rank percentile of n sorted samples is the ceil(p*n/100)-th
    smallest, so the answer is the (n - TAIL_BEYOND)-th smallest, at
    p = 100 * (n - TAIL_BEYOND) / n. With fewer than 2 * TAIL_BEYOND
    samples that rank lies below the median, where a low order statistic
    of a few samples swings from run to run; the median's rank, ceil(n/2),
    is taken instead."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return xs[rank - 1], 100.0 * rank / n


def median(samples) -> float:
    return statistics.median(samples)
