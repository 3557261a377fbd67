"""Percentiles under the reporting rule: a timing is reported as its
median plus the highest percentile of :data:`LADDER` that has at least
:data:`MIN_BEYOND` samples beyond it, with the sample count."""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["LADDER", "MIN_BEYOND", "percentile", "tail_percentile"]

LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first so 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n, 6) / 100))


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int, ladder: Sequence[float] = LADDER,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest percentile of ``ladder`` with ``min_beyond`` samples
    beyond it among ``n``; None when not even the first qualifies."""
    best = None
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            best = p
    return best
