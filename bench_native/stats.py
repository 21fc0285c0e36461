"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import math
import statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of an unsorted sequence:
    the smallest sample with at least ``p`` percent of the samples at or
    below it, so a p99 over 1,000 samples leaves exactly ten beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract is judged by."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def quiet_half(items: list, speed) -> list:
    """The half of ``items`` (rounded up) with the highest ``speed``.

    The shared box's noise is one-sided: bursts of about a second that
    slow everything by 1.3-1.6x, sometimes most of a minute of them. What
    the program does between the bursts is the half that ran fastest."""
    ranked = sorted(items, key=speed, reverse=True)
    return ranked[:math.ceil(len(ranked) / 2)]


def quiet_median(times) -> float:
    """Median of the quiet (shortest) half of some repeated timing."""
    return median(quiet_half(list(times), lambda t: -t))
