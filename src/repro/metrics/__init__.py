"""Measurement utilities: time series, CDFs, tail ratios, durations."""

from repro.metrics.stats import (
    cdf_points,
    ccdf_points,
    percentile,
    tail_fraction,
)
from repro.metrics.recorder import (
    RttRecorder,
    FrameRecorder,
    RateRecorder,
    degradation_duration,
)
from repro.metrics.hotpath import (
    HotpathStats,
    snapshot_ap,
    snapshot_fortune_teller,
    snapshot_updater,
)

__all__ = [
    "HotpathStats",
    "snapshot_ap",
    "snapshot_fortune_teller",
    "snapshot_updater",
    "cdf_points",
    "ccdf_points",
    "percentile",
    "tail_fraction",
    "RttRecorder",
    "FrameRecorder",
    "RateRecorder",
    "degradation_duration",
]
