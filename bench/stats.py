"""Order statistics shared by the benchmark: nearest-rank percentiles, the
tail-percentile rule and the quartile spread used to judge steadiness."""

from __future__ import annotations

import math
import statistics

# Percentile levels a tail may be reported at. A workload names its
# preferred level; a run that has too few samples for it drops to the
# highest lower level that still has MIN_BEYOND samples beyond it.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    # round away float noise such as 0.9 * 100 = 90.00000000000001
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked strictly above the pct-th percentile."""
    return n - rank(n, pct)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def tail_level(n: int, preferred: float) -> float | None:
    """The preferred level if at least MIN_BEYOND of n samples lie beyond
    it, else the highest lower level that has them; None if none does."""
    for level in sorted((x for x in TAIL_LEVELS if x <= preferred), reverse=True):
        if samples_beyond(n, level) >= MIN_BEYOND:
            return level
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
