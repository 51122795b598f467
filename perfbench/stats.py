"""Order statistics and span arithmetic used by the benchmark.

Standard library only.  ``quartiles`` follows ``statistics.quantiles(values,
n=4)`` (the exclusive method), which is also how run-to-run spread is judged.
"""
from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0.0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / abs(q2)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    A span is ``(name, start, end, parent)`` with ``parent`` the index of the
    enclosing span or -1.  Spans recorded on one thread nest, so the direct
    children of a span cover disjoint parts of its interval.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        if parent >= 0:
            out[parent] -= s[2] - s[1]
    return out


def aggregate(spans: Sequence[Sequence]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    selfs = self_times(spans)
    acc: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        entry = acc.setdefault(s[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s[2] - s[1]
        entry[2] += own
    return {k: (v[0], v[1], v[2]) for k, v in acc.items()}
