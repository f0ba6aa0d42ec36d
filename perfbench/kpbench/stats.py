"""Order statistics shared by the run's report and its per-layer table."""

from __future__ import annotations


def quantile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(n: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond."""
    best = 0.5
    for beyond in (10, 100, 1000):  # one sample in `beyond` lies above
        if n >= 10 * beyond:
            best = 1 - 1 / beyond
    return best


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
