"""Percentiles under the ten-beyond rule, and spread summaries."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of the ``q`` quantile of ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(q * n)))


def beyond(n: int, q: float) -> int:
    """Samples strictly after the ``q`` quantile's rank."""
    return n - rank(n, q) if n else 0


def qualifies(n: int, q: float) -> bool:
    """True when the ``q`` percentile of ``n`` samples may be reported."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (a measured sample, never interpolated)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def highest_reportable(n: int) -> float | None:
    """The highest of p99.9/p99/p90/p50 with ten samples beyond it."""
    for q in (0.999, 0.99, 0.9, 0.5):
        if qualifies(n, q):
            return q
    return None


def latency_summary(values_ms: list[float]) -> dict:
    """p50/p90/p99 of a non-empty sample, with its count and which qualify."""
    n = len(values_ms)
    out: dict = {"n": n}
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        out[label] = percentile(values_ms, q)
        out[f"{label}_ok"] = qualifies(n, q)
    top = highest_reportable(n)
    out["tail_q"] = top
    out["tail"] = percentile(values_ms, top) if top is not None else None
    return out


def iqr_share(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the spread gate)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
