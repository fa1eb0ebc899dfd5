"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Candidate tail percentiles, lowest first.  The reported tail is the highest
#: of these that still has at least TAIL_MIN_BEYOND samples above it.  The
#: steps are wide so that one workload keeps the same percentile from run to
#: run.  The ladder stops at 95.  Beyond it, the slowest splits of a scan fall
#: in short slow spells of the shared host, shorter than the speed probe's
#: cadence, and in garbage-collector pauses.  Over ten seeds on scan-w16-r3,
#: p99.9 spread 0.27-0.30 in wall-clock runs, and p99 spread 0.21 even at
#: reference speed.
TAIL_LADDER = ("50", "80", "95")
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: Fraction | str):
    """The nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(Fraction(pct) * n / 100))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile whose nearest-rank sample has at least
    TAIL_MIN_BEYOND samples ranked above it, or None when n is too small."""
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(Fraction(pct) * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values) -> tuple[float, str, int]:
    """(value, percentile, sample count) of the tail rule.

    With fewer samples than the lowest ladder step needs, the tail is the
    maximum and the percentile reads "100".
    """
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct is None:
        return ordered[-1], "100", len(ordered)
    return nearest_rank(ordered, pct), pct, len(ordered)


def median(values) -> float:
    return statistics.median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
