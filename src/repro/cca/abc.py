"""ABC: Accel-Brake Control (Goyal et al., NSDI 2020), simplified.

The host-router co-designed baseline the paper compares against. The
router half (:class:`AbcRouter`) runs at the wireless AP: for every data
packet it computes a target rate from the measured dequeue rate and the
current queueing delay, and marks the packet *accelerate* or *brake* so
that the sender's reaction tracks the target. The receiver echoes marks
in ACKs; the sender (:class:`AbcSenderCca`) adjusts its window by +1
segment per accelerate and -1 per brake.

Unlike Zhuge, ABC requires modified senders AND receivers (the mark
echo), which is the deployability gap §2.3 highlights.
"""

from __future__ import annotations

from collections import deque

from repro.cca.base import WindowCca
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue

#: ABC's router constants (Goyal et al.): target utilisation, delay
#: target, the drain time constant and the rate-measurement window.
ETA = 0.95
DELAY_TARGET = 0.020
DELTA = 0.133
RATE_WINDOW = 0.040


class AbcRouter:
    """AP-side marking engine.

    ``target rate = ETA * mu - (mu / DELTA) * max(0, (d_q - d_t))`` where
    ``mu`` is the measured dequeue rate, ``d_q`` the current queueing
    delay and ``d_t`` the router's ``DELAY_TARGET``. Packets are marked
    accelerate with probability ``min(1, target / 2*enqueue_rate)`` such
    that the induced ACK stream moves the sender toward the target
    (each accelerate = +1 packet, each brake = -1 packet per ACK).
    """

    def __init__(self, queue: DropTailQueue, capacity_fn=None):
        self.queue = queue
        # ABC runs *at* the AP, so it knows the link capacity directly
        # (the paper's ABC reads it from the wireless driver). When no
        # callback is given we fall back to the measured dequeue rate,
        # which underestimates mu for app-limited flows.
        self.capacity_fn = capacity_fn
        self._departures: deque[tuple[float, int]] = deque()
        self._arrivals: deque[tuple[float, int]] = deque()
        self._token_fraction = 0.0
        queue.on_departure.append(self._on_departure)

    def _on_departure(self, packets: list, queue: DropTailQueue) -> None:
        for packet in packets:
            if packet.dequeued_at is not None:
                self._departures.append((packet.dequeued_at, packet.size))

    def _rate(self, series: deque[tuple[float, int]], now: float) -> float:
        horizon = now - RATE_WINDOW
        while series and series[0][0] < horizon:
            series.popleft()
        total_bits = sum(size for _, size in series) * 8
        return total_bits / RATE_WINDOW

    def queueing_delay(self, now: float) -> float:
        mu = max(self._rate(self._departures, now), 1_000.0)
        return self.queue.byte_length * 8 / mu

    def mark(self, packet: Packet, now: float) -> None:
        """Annotate a downlink data packet with accelerate/brake."""
        self._arrivals.append((now, packet.size))
        if self.capacity_fn is not None:
            mu = max(self.capacity_fn(now), 10_000.0)
        else:
            mu = max(self._rate(self._departures, now), 10_000.0)
        d_q = self.queue.byte_length * 8 / mu
        target = ETA * mu - (mu / DELTA) * max(0.0, d_q - DELAY_TARGET)
        target = max(target, 0.0)
        incoming = max(self._rate(self._arrivals, now), 10_000.0)
        accel_fraction = min(1.0, target / (2.0 * incoming))
        # Deterministic token accumulation = fluid-limit marking.
        self._token_fraction += accel_fraction
        if self._token_fraction >= 1.0:
            self._token_fraction -= 1.0
            packet.headers["abc_mark"] = "accelerate"
        else:
            packet.headers["abc_mark"] = "brake"


class AbcSenderCca(WindowCca):
    """Sender half: +-1 MSS per echoed accelerate/brake mark."""

    def __init__(self, mss: int = 1448):
        super().__init__(mss=mss)
        self.accels = 0
        self.brakes = 0

    def on_explicit_feedback(self, now: float, mark: str) -> None:
        if mark == "accelerate":
            self.accels += 1
            self.cwnd += self.mss
        elif mark == "brake":
            self.brakes += 1
            self.cwnd = max(2 * self.mss, self.cwnd - self.mss)

    def on_ack(self, now: float, rtt: float, acked_bytes: int) -> None:
        """ABC's rate control is entirely mark-driven; ACKs carry marks."""

    def on_loss(self, now: float) -> None:
        self.cwnd = max(2 * self.mss, int(self.cwnd * 0.9))
