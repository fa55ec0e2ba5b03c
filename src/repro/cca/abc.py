"""ABC: Accel-Brake Control (Goyal et al., NSDI 2020), simplified.

The host-router co-designed baseline the paper compares against. The
router half (:class:`AbcRouter`) is the wireless AP: for every data
packet it computes a target rate from the link capacity and the
current queueing delay, and marks the packet *accelerate* or *brake* so
that the sender's reaction tracks the target. The receiver echoes marks
in ACKs; the sender (:class:`AbcSenderCca`) adjusts its window by +1
segment per accelerate and -1 per brake.

Unlike Zhuge, ABC requires modified senders AND receivers (the mark
echo), which is the deployability gap §2.3 highlights.
"""

from __future__ import annotations

from collections import deque

from repro.baselines.passthrough import PassthroughAP
from repro.cca.base import WindowCca
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator

#: ABC's router constants (Goyal et al.): target utilisation, delay
#: target, the drain time constant and the rate-measurement window.
ETA = 0.95
DELAY_TARGET = 0.020
DELTA = 0.133
RATE_WINDOW = 0.040


class AbcRouter(PassthroughAP):
    """AP-side marking engine: an AP that marks every downlink data
    packet before forwarding it.

    ``target rate = ETA * mu - (mu / DELTA) * max(0, (d_q - d_t))`` where
    ``mu`` is the link capacity, ``d_q`` the current queueing delay and
    ``d_t`` the router's ``DELAY_TARGET``. Packets are marked
    accelerate with probability ``min(1, target / 2*enqueue_rate)`` such
    that the induced ACK stream moves the sender toward the target
    (each accelerate = +1 packet, each brake = -1 packet per ACK).
    """

    def __init__(self, sim: Simulator, queue: DropTailQueue, capacity_fn):
        super().__init__()
        self.sim = sim
        self.queue = queue
        # ABC runs *at* the AP, so it knows the link capacity directly
        # (the paper's ABC reads it from the wireless driver).
        self.capacity_fn = capacity_fn
        #: (arrival time, bytes) over the last ``RATE_WINDOW``, and
        #: their byte total.
        self._arrivals: deque[tuple[float, int]] = deque()
        self._arrival_bytes = 0
        self._token_fraction = 0.0

    def on_downlink(self, packet: Packet) -> None:
        if packet.kind == PacketKind.DATA:
            self.mark(packet, self.sim.now)
        super().on_downlink(packet)

    def mark(self, packet: Packet, now: float) -> None:
        """Annotate a downlink data packet with accelerate/brake."""
        arrivals = self._arrivals
        arrivals.append((now, packet.size))
        total = self._arrival_bytes + packet.size
        horizon = now - RATE_WINDOW
        while arrivals[0][0] < horizon:
            total -= arrivals.popleft()[1]
        self._arrival_bytes = total
        mu = max(self.capacity_fn(now), 10_000.0)
        d_q = self.queue.byte_length * 8 / mu
        target = ETA * mu - (mu / DELTA) * max(0.0, d_q - DELAY_TARGET)
        target = max(target, 0.0)
        incoming = max(total * 8 / RATE_WINDOW, 10_000.0)
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
