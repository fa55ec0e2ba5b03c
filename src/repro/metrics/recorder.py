"""Time-series recorders for RTT, frames, and rates.

Recorders accumulate (time, value) samples during a run; summary methods
compute the paper's metrics:

* tail-latency ratio   — P(network RTT > 200 ms),
* delayed-frame ratio  — P(frame delay > 400 ms),
* low-frame-rate ratio — P(per-second frame rate < 10 fps),
* degradation duration — total time a signal stayed above a threshold.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields

from repro.metrics.stats import tail_fraction

RTT_TAIL_THRESHOLD = 0.200
FRAME_DELAY_THRESHOLD = 0.400
LOW_FPS_THRESHOLD = 10.0


def column() -> array:
    """An empty packed series: one C double per sample."""
    return array("d")


class _Columns:
    """Two parallel columns, the first stamped by the simulator clock."""

    def since(self, start: float):
        """Samples stamped at or after ``start``, as fresh columns.

        The clock column is non-decreasing (every ``record`` call is
        stamped with simulator time), so the cut is one binary search.
        """
        times, values = (getattr(self, f.name) for f in fields(self))
        i = bisect_left(times, start)
        return type(self)(times[i:], values[i:])


@dataclass
class RttRecorder(_Columns):
    """Per-packet RTT samples measured at the sender."""

    times: array = field(default_factory=column)
    rtts: array = field(default_factory=column)

    def record(self, time: float, rtt: float) -> None:
        if rtt < 0:
            raise ValueError(f"negative RTT: {rtt}")
        self.times.append(time)
        self.rtts.append(rtt)

    @property
    def count(self) -> int:
        return len(self.rtts)

    def tail_ratio(self, threshold: float = RTT_TAIL_THRESHOLD) -> float:
        """Fraction of RTT samples above ``threshold`` (default 200 ms)."""
        return tail_fraction(self.rtts, threshold)

    def degradation_duration(self,
                             threshold: float = RTT_TAIL_THRESHOLD,
                             start: float | None = None) -> float:
        """Total seconds during which measured RTT exceeded ``threshold``."""
        return degradation_duration(self.times, self.rtts, threshold,
                                    start=start)


@dataclass
class FrameRecorder(_Columns):
    """Frame-level delivery records measured at the receiver."""

    frame_times: array = field(default_factory=column)   # decode instants
    frame_delays: array = field(default_factory=column)  # encode->decode

    def record(self, decode_time: float, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative frame delay: {delay}")
        self.frame_times.append(decode_time)
        self.frame_delays.append(delay)

    @property
    def count(self) -> int:
        return len(self.frame_delays)

    def delayed_ratio(self,
                      threshold: float = FRAME_DELAY_THRESHOLD) -> float:
        """Fraction of frames with delay above ``threshold`` (default 400 ms)."""
        return tail_fraction(self.frame_delays, threshold)

    def delay_degradation_duration(
            self, threshold: float = FRAME_DELAY_THRESHOLD,
            start: float | None = None) -> float:
        return degradation_duration(self.frame_times, self.frame_delays,
                                    threshold, start=start)

    def per_second_fps(self, duration: float,
                       start: float = 0.0) -> list[float]:
        """Frame *rate* in each 1 s bucket of [start, start+duration).

        A non-integer duration gets a final partial bucket whose count is
        normalized by its width, so a 0.5 s tail with 12 frames reports
        24 fps rather than an artificial low-fps second (and frames in
        the tail are counted at all — they used to be silently dropped).
        Integer durations are bit-identical to the raw per-second counts.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        n = max(1, math.ceil(duration))
        buckets = [0] * n
        for t in self.frame_times:
            offset = t - start
            if 0 <= offset < duration:
                buckets[min(int(offset), n - 1)] += 1
        fps = [float(b) for b in buckets]
        partial = duration - (n - 1)
        if partial < 1.0:
            fps[-1] = buckets[-1] / partial
        return fps

    def low_fps_ratio(self, duration: float, start: float = 0.0,
                      threshold: float = LOW_FPS_THRESHOLD) -> float:
        """Fraction of seconds with a frame rate below ``threshold``."""
        fps = self.per_second_fps(duration, start)
        return tail_fraction(fps, threshold, above=False)

    def low_fps_duration(self, duration: float, start: float = 0.0,
                         threshold: float = LOW_FPS_THRESHOLD) -> float:
        """Seconds during which the per-second frame rate was below threshold.

        The final bucket of a non-integer duration only spans its partial
        width, so it contributes that width (not a full second).
        """
        fps = self.per_second_fps(duration, start)
        partial = duration - (len(fps) - 1)
        total = 0.0
        for i, f in enumerate(fps):
            if f < threshold:
                total += partial if (i == len(fps) - 1
                                     and partial < 1.0) else 1.0
        return total


@dataclass
class RateRecorder(_Columns):
    """Sender-side rate (bitrate / cwnd-equivalent) over time."""

    times: array = field(default_factory=column)
    rates: array = field(default_factory=column)

    def record(self, time: float, rate: float) -> None:
        self.times.append(time)
        self.rates.append(rate)

    def mean_rate(self, start: float = 0.0) -> float:
        values = self.since(start).rates
        if not values:
            return 0.0
        return sum(values) / len(values)

    def reconvergence_duration(self, drop_time: float,
                               target_rate: float,
                               slack: float = 1.3) -> float:
        """Time after ``drop_time`` until the rate stays within
        ``slack * target_rate`` — the Fig. 4b re-convergence metric."""
        limit = target_rate * slack
        last_violation = drop_time
        for t, r in zip(self.times, self.rates):
            if t >= drop_time and r > limit:
                last_violation = t
        return max(0.0, last_violation - drop_time)


def degradation_duration(times: list[float], values: list[float],
                         threshold: float,
                         start: float | None = None) -> float:
    """Total time ``values`` (sampled at ``times``) exceeded ``threshold``.

    Each sample is assumed to hold until the next sample. Samples before
    ``start`` are ignored.
    """
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    total = 0.0
    for i, (t, v) in enumerate(zip(times, values)):
        if start is not None and t < start:
            continue
        if v <= threshold:
            continue
        if i + 1 < len(times):
            total += times[i + 1] - t
        # The final sample contributes nothing: its holding time is unknown.
    return total
