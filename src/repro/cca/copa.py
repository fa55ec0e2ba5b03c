"""Copa congestion control (Arun & Balakrishnan, NSDI 2018), simplified.

Delay-based: the target rate is ``1 / (delta * d_q)`` where ``d_q`` is
the standing queueing delay (standing RTT minus the RTT floor). The
window moves toward the target at a velocity that doubles each RTT the
direction is stable. Loss-insensitive by design — which is exactly why
CoDel barely helps it (paper §2.2) and why Zhuge's delay signal does.
"""

from __future__ import annotations

from collections import deque

from repro.cca.base import WindowCca

#: Copa's default-mode delta (the paper's 0.5).
DELTA = 0.5


class CopaCca(WindowCca):
    """Simplified Copa in default (non-competitive) mode."""

    def __init__(self, mss: int = 1448):
        super().__init__(mss=mss)
        self._min_rtt = float("inf")
        self._rtt_window: deque[tuple[float, float]] = deque()  # (time, rtt)
        self._srtt = 0.0
        self._velocity = 1.0
        self._direction = 0
        self._direction_rtts = 0
        self._last_direction_update = 0.0

    @property
    def min_rtt(self) -> float:
        return self._min_rtt if self._min_rtt != float("inf") else 0.05

    def _standing_rtt(self, now: float) -> float:
        """Minimum RTT over the last srtt/2 window (Copa's standing RTT)."""
        horizon = now - max(self._srtt / 2, 0.01)
        while self._rtt_window and self._rtt_window[0][0] < horizon:
            self._rtt_window.popleft()
        if not self._rtt_window:
            return self.min_rtt
        return min(rtt for _, rtt in self._rtt_window)

    def on_ack(self, now: float, rtt: float, acked_bytes: int) -> None:
        self._min_rtt = min(self._min_rtt, rtt)
        self._srtt = rtt if self._srtt == 0 else 0.875 * self._srtt + 0.125 * rtt
        self._rtt_window.append((now, rtt))

        standing = self._standing_rtt(now)
        queue_delay = max(standing - self.min_rtt, 1e-6)
        # Target rate in packets/sec -> target window in packets.
        target_rate = 1.0 / (DELTA * queue_delay)
        target_window = target_rate * standing  # packets

        cwnd_pkts = self.cwnd / self.mss
        current_rate = cwnd_pkts / max(standing, 1e-6)

        if current_rate < target_rate:
            new_direction = 1
        else:
            new_direction = -1
        if new_direction == self._direction:
            if now - self._last_direction_update > standing:
                self._direction_rtts += 1
                self._last_direction_update = now
                if self._direction_rtts >= 3:
                    self._velocity = min(self._velocity * 2, 64.0)
        else:
            self._direction = new_direction
            self._direction_rtts = 0
            self._velocity = 1.0
            self._last_direction_update = now

        step = self._velocity / (DELTA * max(cwnd_pkts, 1.0))
        if new_direction > 0:
            cwnd_pkts += step
        else:
            cwnd_pkts -= step
        cwnd_pkts = max(2.0, min(cwnd_pkts, max(target_window * 4, 16.0)))
        self.cwnd = int(cwnd_pkts * self.mss)

    def on_loss(self, now: float) -> None:
        # Copa reacts to loss only mildly (loss means delta-based mode
        # switches in full Copa; we apply a bounded decrease).
        self.cwnd = max(2 * self.mss, int(self.cwnd * 0.85))
        self._velocity = 1.0
        self._direction = 0
