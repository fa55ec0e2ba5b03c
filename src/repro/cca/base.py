"""CCA plug-in interfaces.

``WindowCca`` is the contract the TCP-like transport drives: it exposes a
congestion window in bytes and receives ACK/loss/RTO notifications.
``RateCca`` is the contract the RTP sender drives: it exposes a target
bitrate and receives periodic in-band feedback reports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


class WindowCca(abc.ABC):
    """Window-based congestion control driven by the TCP transport."""

    #: Tracing probe; ``None`` keeps the hot path untouched. Probes are
    #: installed by :meth:`enable_trace` as method wrappers, so a CCA
    #: that never enables tracing pays nothing at all.
    trace = None
    _trace_track = "cca"

    def __init__(self, mss: int = 1448):
        self.mss = mss
        self.cwnd = 10 * mss  # bytes

    def enable_trace(self, bus, track: str) -> None:
        """Emit a ``cca.cwnd`` event whenever a notification moves cwnd.

        Wraps the instance's notification entry points instead of
        guarding every ``self.cwnd = ...`` assignment in every subclass:
        the window only changes inside these calls, and the wrapper
        exists only on traced instances.
        """
        self.trace = bus
        self._trace_track = track
        bus.cca_cwnd(track, self.cwnd)
        for name in ("on_ack", "on_loss", "on_rto", "on_explicit_feedback"):
            _wrap_traced(self, name, lambda: self.cwnd,
                         lambda value: bus.cca_cwnd(self._trace_track, value))

    @abc.abstractmethod
    def on_ack(self, now: float, rtt: float, acked_bytes: int) -> None:
        """A new cumulative ACK arrived carrying an RTT sample."""

    @abc.abstractmethod
    def on_loss(self, now: float) -> None:
        """Fast-retransmit-detected loss (once per loss event)."""

    def on_rto(self, now: float) -> None:
        """Retransmission timeout: collapse to one segment by default."""
        self.cwnd = 2 * self.mss

    def on_explicit_feedback(self, now: float, mark: str) -> None:
        """Explicit per-ACK feedback (ABC accelerate/brake). Default: ignore."""

    def pacing_rate(self, srtt: float) -> float | None:
        """Optional pacing rate in bps; None means send window-limited."""
        return None


@dataclass
class FeedbackPacketReport:
    """One data packet's fate, as reported by in-band (TWCC) feedback."""

    seq: int
    size: int
    send_time: float
    recv_time: float | None  # None = lost


#: Floor of every rate-based CCA's target.
MIN_BPS = 150e3


class RateCca(abc.ABC):
    """Rate-based congestion control driven by the RTP sender."""

    trace = None
    _trace_track = "cca"

    def __init__(self, initial_bps: float = 1e6, max_bps: float = 50e6):
        if initial_bps <= 0:
            raise ValueError(f"initial rate must be positive: {initial_bps}")
        self.target_bps = initial_bps
        self.max_bps = max_bps

    @abc.abstractmethod
    def on_feedback(self, now: float,
                    reports: list[FeedbackPacketReport]) -> None:
        """A feedback packet (e.g. TWCC) arrived with per-packet reports."""

    def enable_trace(self, bus, track: str) -> None:
        """Emit a ``cca.rate`` event whenever feedback moves the target."""
        self.trace = bus
        self._trace_track = track
        bus.cca_rate(track, self.target_bps)
        _wrap_traced(self, "on_feedback", lambda: self.target_bps,
                     lambda value: bus.cca_rate(self._trace_track, value))

    def _clamp(self) -> None:
        self.target_bps = min(self.max_bps, max(MIN_BPS, self.target_bps))


def _wrap_traced(cca, method_name: str, read_state, emit) -> None:
    """Replace a bound method with a change-detecting traced wrapper."""
    inner = getattr(cca, method_name)

    def traced(*args, **kwargs):
        before = read_state()
        result = inner(*args, **kwargs)
        after = read_state()
        if after != before:
            emit(after)
        return result

    setattr(cca, method_name, traced)
