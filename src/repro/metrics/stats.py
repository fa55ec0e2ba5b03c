"""Distribution statistics used by every experiment.

Pure functions over lists of samples; no simulator dependency so they
are usable in post-processing and tests alike.
"""

from __future__ import annotations

import math
from typing import Sequence


def quantiles(samples: Sequence[float],
              qs: Sequence[float]) -> list[float]:
    """Linear-interpolated percentiles ``qs`` (each in [0, 100]), all
    read from one sorted copy of ``samples``."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100]: {q}")
    ordered = sorted(samples)
    last = len(ordered) - 1
    out = []
    for q in qs:
        rank = (q / 100) * last
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            out.append(ordered[low])
            continue
        weight = rank - low
        # This form is exact when both neighbours are equal (no float
        # drift).
        out.append(ordered[low] + (ordered[high] - ordered[low]) * weight)
    return out


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return quantiles(samples, (q,))[0]


def tail_fraction(samples: Sequence[float], threshold: float,
                  above: bool = True) -> float:
    """Fraction of samples beyond ``threshold``.

    ``above=True`` counts samples strictly greater (tail-latency style);
    ``above=False`` counts samples strictly smaller (low-frame-rate style).
    """
    if not samples:
        return 0.0
    if above:
        count = sum(1 for s in samples if s > threshold)
    else:
        count = sum(1 for s in samples if s < threshold)
    return count / len(samples)


def cdf_points(samples: Sequence[float],
               points: int = 200) -> list[tuple[float, float]]:
    """(value, P(X <= value)) pairs, subsampled to at most ``points``."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    step = max(1, n // points)
    out = []
    last_rank = 0
    for i in range(0, n, step):
        out.append((ordered[i], (i + 1) / n))
        last_rank = i
    # Close the curve by *rank*, not value: when subsampling skips the
    # final rank but the max value is duplicated, a value comparison
    # would leave the curve ending below 1.0 (a phantom CCDF tail with
    # P(X > max) > 0).
    if last_rank != n - 1:
        out.append((ordered[-1], 1.0))
    return out


def ccdf_points(samples: Sequence[float],
                points: int = 200) -> list[tuple[float, float]]:
    """(value, P(X > value)) pairs — the 1-CDF curves of Figs. 2 and 13."""
    return [(value, max(0.0, 1.0 - p)) for value, p in cdf_points(samples, points)]


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("mean of empty sample set")
    return sum(samples) / len(samples)


def jain_fairness(rates: Sequence[float]) -> float:
    """Jain's fairness index over per-flow rates (1.0 = perfectly fair)."""
    if not rates:
        raise ValueError("fairness of empty rate set")
    total = sum(rates)
    squares = sum(r * r for r in rates)
    if squares == 0:
        return 1.0
    # Subnormal rates can push the quotient past 1.0 by a few ulps;
    # the index is bounded above by 1 (Cauchy-Schwarz), so clamp.
    return min(1.0, (total * total) / (len(rates) * squares))
