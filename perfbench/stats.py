"""Arithmetic of the benchmark: medians, tail percentiles, span self time,
distinct-input ratios.  Pure standard library, so it is testable on its own.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.  The reported tail is the
# highest one with at least MIN_BEYOND samples strictly beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so that 99.9 % of 10000 is 9990 and not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values, p: float):
    """Nearest-rank p-th percentile of an ascending, nonempty sequence."""
    return sorted_values[rank(len(sorted_values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Number of samples strictly above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n: int):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    or None below 2 * MIN_BEYOND samples, where none qualifies."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail of a nonempty sample; the median
    (reported as percentile 50) when no ladder percentile qualifies."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    if p is None:
        return 50.0, median(ordered)
    return p, nearest_rank(ordered, p)


def median(values) -> float:
    return float(statistics.median(values))


def covered(intervals, start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  spans are (name, start, end, parent) with
    parent the index of the enclosing span, or -1 at the root."""
    children: dict[int, list] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def distinct_ratio(calls: int, distinct: int) -> float:
    """Distinct inputs over calls; 0 when there were no calls."""
    return distinct / calls if calls else 0.0


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
