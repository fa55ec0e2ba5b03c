"""SCReAM: Self-Clocked Rate Adaptation for Multimedia (RFC 8298), simplified.

The third in-band RTP CCA of the paper's Table 2. SCReAM is a hybrid
window/rate controller: a congestion window limits bytes in flight
(self-clocked by feedback) and a media-rate controller converts the
window into an encoder target. Our simplification keeps:

* queue-delay target tracking (``qdelay_target`` 60 ms by default),
* window increase when below target / multiplicative decrease above,
* loss-triggered halving with back-off,
* the media rate = cwnd / smoothed RTT with headroom.
"""

from __future__ import annotations

from repro.cca.base import FeedbackPacketReport, RateCca


class ScreamController(RateCca):
    """Simplified SCReAM congestion/media-rate controller."""

    QDELAY_TARGET = 0.060
    GAIN_UP = 1.0
    BETA_LOSS = 0.6
    BETA_DELAY = 0.9
    MSS = 1200

    def __init__(self, initial_bps: float = 1e6, max_bps: float = 50e6):
        super().__init__(initial_bps, max_bps)
        self.cwnd = 10 * self.MSS
        self._base_delay = float("inf")
        self._srtt = 0.1
        self._last_loss_time = -1.0

    def on_feedback(self, now: float,
                    reports: list[FeedbackPacketReport]) -> None:
        if not reports:
            return
        received = [r for r in reports if r.recv_time is not None]
        lost = len(reports) - len(received)
        if received:
            delays = [r.recv_time - r.send_time for r in received]
            self._base_delay = min(self._base_delay, min(delays))
            qdelay = (sum(delays) / len(delays)) - self._base_delay
            rtt = 2 * (sum(delays) / len(delays))
            self._srtt = 0.875 * self._srtt + 0.125 * max(rtt, 0.01)
            acked_bytes = sum(r.size for r in received)
            self._update_cwnd(now, qdelay, acked_bytes)
        if lost > 0 and now - self._last_loss_time > self._srtt:
            self._last_loss_time = now
            self.cwnd = max(2 * self.MSS, int(self.cwnd * self.BETA_LOSS))

        # Media rate: window over smoothed RTT, with mild headroom so the
        # encoder stays self-clocked rather than queue-building.
        self.target_bps = 0.9 * self.cwnd * 8 / self._srtt
        self._clamp()

    def _update_cwnd(self, now: float, qdelay: float,
                     acked_bytes: int) -> None:
        off_target = (self.QDELAY_TARGET - qdelay) / self.QDELAY_TARGET
        if off_target > 0:
            # Below target: increase proportionally to acked bytes.
            gain = self.GAIN_UP * off_target * acked_bytes * self.MSS
            self.cwnd += int(gain / max(self.cwnd, 1))
        else:
            # Above target: multiplicative decrease scaled by overshoot.
            scale = max(self.BETA_DELAY, 1.0 + 0.5 * off_target)
            self.cwnd = max(2 * self.MSS, int(self.cwnd * scale))
        self.cwnd = min(self.cwnd, int(self.max_bps * self._srtt / 8) + self.MSS)
