"""NADA: Network-Assisted Dynamic Adaptation (RFC 8698), simplified.

One of the in-band RTP CCAs the paper lists in Table 2. NADA unifies
delay, loss, and (optionally) ECN into one aggregate congestion signal
``x_curr`` and updates the rate in two modes:

* **accelerated ramp-up** when the signal shows no congestion at all,
* **gradual update** otherwise, moving the rate toward
  ``x_ref / x_curr``-scaled priority weight with a damping term.

Our simplification keeps RFC 8698's structure (aggregation, the two
modes, the gradual-update law) over the per-packet reports our TWCC
feedback already carries.
"""

from __future__ import annotations

from repro.cca.base import FeedbackPacketReport, RateCca


class NadaController(RateCca):
    """Simplified NADA rate controller."""

    X_REF = 0.010          # reference congestion signal (10 ms)
    KAPPA = 0.5            # gradual-update scaling
    ETA = 2.0              # gradual-update damping
    TAU = 0.5              # observation period for smoothing (s)
    LOSS_PENALTY = 1.0     # seconds of virtual delay per unit loss ratio
    RAMP_UP_LIMIT = 1.5    # max x growth during accelerated ramp-up

    def __init__(self, initial_bps: float = 1e6, max_bps: float = 50e6):
        super().__init__(initial_bps, max_bps)
        self._base_delay = float("inf")
        self._x_prev = self.X_REF
        self._last_update: float | None = None

    def on_feedback(self, now: float,
                    reports: list[FeedbackPacketReport]) -> None:
        if not reports:
            return
        received = [r for r in reports if r.recv_time is not None]
        loss_ratio = 1.0 - len(received) / len(reports)
        if not received:
            # Pure loss: strong multiplicative decrease.
            self.target_bps *= 0.5
            self._clamp()
            return

        # One-way-delay proxy per packet; queuing delay = delta over the
        # smallest delay ever seen.
        delays = [r.recv_time - r.send_time for r in received]
        self._base_delay = min(self._base_delay, min(delays))
        queuing = sum(d - self._base_delay for d in delays) / len(delays)

        # Aggregate congestion signal (RFC 8698 §4.2, simplified).
        x_curr = queuing + self.LOSS_PENALTY * loss_ratio

        delta = 0.1
        if self._last_update is not None:
            delta = min(max(now - self._last_update, 0.01), self.TAU)
        self._last_update = now

        if x_curr < 0.1 * self.X_REF and loss_ratio == 0.0:
            # Accelerated ramp-up: bounded multiplicative increase.
            gamma = min(0.1, 0.5 * delta / self.TAU * self.RAMP_UP_LIMIT)
            self.target_bps *= (1 + gamma)
        else:
            # Gradual update (RFC 8698 eq. 5), discretized.
            x_offset = x_curr - self.X_REF  # priority weight 1
            x_diff = x_curr - self._x_prev
            change = (-self.KAPPA * delta / self.TAU
                      * (x_offset / self.TAU) * self.target_bps
                      - self.KAPPA * self.ETA * (x_diff / self.TAU)
                      * self.target_bps)
            max_step = 0.1 * self.target_bps
            change = max(-max_step, min(max_step, change))
            self.target_bps += change
        self._x_prev = x_curr
        self._clamp()
