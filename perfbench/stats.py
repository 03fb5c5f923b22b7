"""Order statistics for benchmark samples.

Percentiles use the nearest-rank definition, so "samples beyond p" is an
exact count: with n sorted samples, p is read at rank ceil(p * n) and the
n - rank samples above it lie beyond. Percentiles are kept in per-mille as
integers so that the rank arithmetic is exact.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

# p50, p90, p99, p99.9
LADDER_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of the ``permille`` percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, -(-permille * n // 1000))


def percentile(samples: Sequence[float], permille: int) -> float:
    ordered = sorted(samples)
    return ordered[rank(len(ordered), permille) - 1]


def samples_beyond(n: int, permille: int) -> int:
    return n - rank(n, permille)


def tail_permille(n: int) -> Optional[int]:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    or None when even the median has fewer."""
    usable = [p for p in LADDER_PERMILLE if samples_beyond(n, p) >= MIN_BEYOND]
    return max(usable) if usable else None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
