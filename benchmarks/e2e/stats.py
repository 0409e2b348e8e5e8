"""Order statistics for benchmark samples.

Two summaries, both over plain lists of floats:

* :func:`summarize` — median and quartiles (``statistics.quantiles``
  with ``n=4``, its default exclusive method) plus the sample count.
* :func:`tail_percentile` — the highest percentile of a fixed ladder
  that still has at least ten samples beyond it. A p99 over fifty
  samples is one sample, not a percentile; this refuses to report it
  and steps down the ladder instead.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = ["Summary", "Tail", "summarize", "tail_percentile"]

#: Percentiles :func:`tail_percentile` may report, highest first.
TAIL_LADDER: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Summary:
    """Median, quartiles and sample count of one metric."""

    median: float
    q1: float
    q3: float
    n: int


@dataclass(frozen=True)
class Tail:
    """One tail percentile: which, its value, and how well it is backed."""

    pct: float
    value: float
    n: int
    beyond: int


def summarize(samples: Sequence[float]) -> Summary:
    """Median and quartiles of ``samples`` (one sample: all three equal)."""
    values = [float(value) for value in samples]
    if not values:
        raise ValueError("summarize needs at least one sample")
    median = statistics.median(values)
    if len(values) == 1:
        return Summary(median, median, median, 1)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, len(values))


def tail_percentile(samples: Sequence[float]) -> Optional[Tail]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples above it.

    Uses the nearest-rank definition: the p-th percentile of ``n``
    sorted samples is the one at rank ``ceil(p/100 * n)``, and the
    samples beyond it are the ``n - rank`` that rank higher. Returns
    ``None`` when even the lowest ladder entry is too thinly backed.
    """
    values = sorted(float(value) for value in samples)
    n = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return Tail(pct=pct, value=values[rank - 1], n=n, beyond=beyond)
    return None
