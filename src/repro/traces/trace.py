"""Bandwidth trace container.

A trace is a step function: ``rates_bps[i]`` holds for
``[i * interval, (i+1) * interval)``. Playback past the end wraps
around, which lets short generated traces drive long simulations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable


@dataclass
class BandwidthTrace:
    """Time-varying available bandwidth of a bottleneck link."""

    rates_bps: list[float]
    interval: float = 0.200
    name: str = "trace"
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.rates_bps:
            raise ValueError("trace must contain at least one rate sample")
        if self.interval <= 0:
            raise ValueError(f"interval must be positive: {self.interval}")
        for rate in self.rates_bps:
            if rate < 0:
                raise ValueError(f"negative rate in trace: {rate}")

    @property
    def duration(self) -> float:
        """Length of one playback pass in seconds."""
        return len(self.rates_bps) * self.interval

    @property
    def mean_bps(self) -> float:
        return sum(self.rates_bps) / len(self.rates_bps)

    def rate_at(self, time: float) -> float:
        """Bandwidth at virtual ``time``; wraps past the trace end."""
        if time < 0:
            raise ValueError(f"time must be non-negative: {time}")
        index = int(time / self.interval) % len(self.rates_bps)
        return self.rates_bps[index]

    def next_change(self, time: float) -> float:
        """The next instant at which the rate (may) change."""
        index = int(time / self.interval)
        return (index + 1) * self.interval

    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy with every rate multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        return BandwidthTrace([r * factor for r in self.rates_bps],
                              self.interval, f"{self.name}*{factor:g}",
                              dict(self.extra))

    def resampled(self, interval: float) -> "BandwidthTrace":
        """A copy resampled to a new step ``interval`` (nearest sample)."""
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        count = max(1, round(self.duration / interval))
        rates = [self.rate_at(i * interval) for i in range(count)]
        return BandwidthTrace(rates, interval, self.name, dict(self.extra))

    def windows(self, window: float) -> list[float]:
        """Mean rate over consecutive windows of ``window`` seconds."""
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        per_window = max(1, round(window / self.interval))
        means = []
        for start in range(0, len(self.rates_bps), per_window):
            chunk = self.rates_bps[start:start + per_window]
            means.append(sum(chunk) / len(chunk))
        return means

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON."""
        payload = {
            "name": self.name,
            "interval": self.interval,
            "rates_bps": self.rates_bps,
            "extra": self.extra,
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "BandwidthTrace":
        payload = json.loads(Path(path).read_text())
        return cls(rates_bps=payload["rates_bps"],
                   interval=payload["interval"],
                   name=payload.get("name", "trace"),
                   extra=payload.get("extra", {}))

    @classmethod
    def constant(cls, rate_bps: float, duration: float,
                 interval: float = 0.200, name: str = "constant") -> "BandwidthTrace":
        count = max(1, round(duration / interval))
        return cls([rate_bps] * count, interval, name)

    @classmethod
    def from_steps(cls, steps: Iterable[tuple[float, float]],
                   interval: float = 0.010,
                   name: str = "steps") -> "BandwidthTrace":
        """Build from (duration_seconds, rate_bps) segments."""
        rates: list[float] = []
        for duration, rate in steps:
            count = max(1, round(duration / interval))
            rates.extend([rate] * count)
        return cls(rates, interval, name)

    def __len__(self) -> int:
        return len(self.rates_bps)
