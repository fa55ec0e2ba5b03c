"""Access-network comparison driver (Fig. 2).

Reproduces the motivation study: RTC flows over Ethernet, WiFi, and
cellular access produce comparable median RTT, but wireless access has
a far heavier tail (RTT, frame delay) and more low-frame-rate seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import run_specs
from repro.experiments.drivers.traces_eval import (grid_specs, pooled,
                                                   seed_split)
from repro.metrics.stats import ccdf_points, percentile, tail_fraction

ACCESS_TYPES = (
    ("Ethernet", "eth"),
    ("WiFi", "W1"),
    ("4G", "C2"),
)


@dataclass
class AccessRow:
    """Distribution summary for one access type."""

    access: str
    median_rtt: float
    p99_rtt: float
    delayed_frame_ratio: float
    low_fps_ratio: float
    rtt_ccdf: list[tuple[float, float]]
    frame_delay_ccdf: list[tuple[float, float]]


def fig2_access_comparison(duration: float = 60.0,
                           seeds: tuple[int, ...] = (1, 2),
                           jobs: int = 0, cache=None) -> list[AccessRow]:
    """One RTP flow per access type; returns tail summaries + CCDFs."""
    grid = [(family, label, dict(protocol="rtp"))
            for label, family in ACCESS_TYPES]
    summaries = run_specs(grid_specs(grid, duration, seeds), jobs=jobs,
                          cache=cache)
    rows = []
    for (_, label, _), chunk in zip(grid, seed_split(summaries, seeds)):
        rtts, delays, fps = pooled(chunk, duration)
        rows.append(AccessRow(
            access=label,
            median_rtt=percentile(rtts, 50),
            p99_rtt=percentile(rtts, 99),
            delayed_frame_ratio=tail_fraction(delays, 0.400),
            low_fps_ratio=tail_fraction(fps, 10.0, above=False),
            rtt_ccdf=ccdf_points(rtts, points=30),
            frame_delay_ccdf=ccdf_points(delays, points=30),
        ))
    return rows
