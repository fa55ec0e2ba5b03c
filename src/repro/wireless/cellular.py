"""Cellular downlink model: per-UE queues, slotted scheduling.

The paper's cellular traces (C1-C3) come from 4G/5G networks, whose
base stations differ from WiFi APs in two ways that matter here:

* **flow isolation** — each UE (and in practice each bearer) has its own
  queue at the eNB/gNB, so competing flows cannot directly bloat the RTC
  flow's queue (§4.1);
* **slotted service** — the scheduler grants resources per TTI
  (~1 ms), producing regular, small service quanta rather than WiFi's
  contention-gated AMPDU bursts.

:class:`CellularLink` serves a :class:`~repro.aqm.fq_codel.FqCoDelQueue`
(or any flow-isolating queue) in round-robin TTIs at the trace-driven
cell rate. The Fortune Teller observes it exactly as it observes WiFi —
per-flow, through the queue callbacks.  Like the WiFi link it hands
each TTI's surviving packets to one list receiver, ``deliver_batch``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.wireless.channel import WirelessChannel

DeliverCallback = Callable[[list[Packet]], None]


class CellularLink:
    """Slotted cellular downlink serving a (possibly flow-isolating) queue."""

    def __init__(self, sim: Simulator, channel: WirelessChannel,
                 queue: DropTailQueue, tti: float = 0.001,
                 propagation_delay: float = 0.010,
                 name: str = "cell"):
        if tti <= 0:
            raise ValueError(f"tti must be positive: {tti}")
        self.sim = sim
        self.channel = channel
        self.queue = queue
        self.tti = tti
        self.propagation_delay = propagation_delay
        self.name = name
        self.deliver_batch: Optional[DeliverCallback] = None
        self._serving = False
        self._carryover_bytes = 0.0
        self.ttis = 0
        self.packets_sent = 0
        #: Fault hooks (:mod:`repro.faults`); same contract as
        #: :class:`~repro.wireless.link.WirelessLink`.
        self.blocked = False
        self.fault_drop: Optional[Callable[[Packet], bool]] = None
        self.fault_dropped = 0

    def send(self, packet: Packet) -> None:
        accepted = self.queue.enqueue(packet, self.sim.now)
        if accepted and not self._serving and not self.blocked:
            self._serving = True
            self.sim.schedule(0.0, self._serve_tti)

    def block(self) -> None:
        """Stop serving (cell outage); arrivals keep queueing."""
        self.blocked = True

    def unblock(self) -> None:
        """Resume serving; kicks the loop if a backlog accumulated."""
        self.blocked = False
        if not self._serving and not self.queue.is_empty:
            self._serving = True
            self.sim.schedule(0.0, self._serve_tti)

    def _serve_tti(self) -> None:
        """Serve up to one TTI's worth of bytes, then re-arm."""
        if self.blocked:
            # No grants during the outage, and no hoarded budget after.
            self._serving = False
            self._carryover_bytes = 0.0
            return
        if self.queue.is_empty:
            self._serving = False
            self._carryover_bytes = 0.0
            return
        rate = self.channel.rate_at(self.sim.now)
        budget = rate / 8 * self.tti + self._carryover_bytes
        sent: list[Packet] = []
        while not self.queue.is_empty:
            head = self.queue.front()
            if head is not None and head.size > budget:
                break
            packet = self.queue.dequeue(self.sim.now)
            if packet is None:
                break
            budget -= packet.size
            sent.append(packet)
        # Unused grant carries to the next TTI only when a head-of-line
        # packet was too large for this one (no idle hoarding).
        self._carryover_bytes = budget if not self.queue.is_empty else 0.0
        self._carryover_bytes = min(self._carryover_bytes, 3000.0)
        self.ttis += 1
        self.packets_sent += len(sent)
        if sent:
            self.sim.schedule(self.propagation_delay,
                              lambda pkts=sent: self._arrive(pkts))
        self.sim.schedule(self.tti, self._serve_tti)

    def _arrive(self, packets: list[Packet]) -> None:
        deliver_batch = self.deliver_batch
        if deliver_batch is None:
            return
        sim = self.sim
        sim.packets_processed += len(packets)
        now = sim._now
        fault_drop = self.fault_drop
        survivors = []
        for packet in packets:
            if fault_drop is not None and fault_drop(packet):
                self.fault_dropped += 1
                continue
            packet.received_at = now
            survivors.append(packet)
        if survivors:
            deliver_batch(survivors)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CellularLink({self.name}, {self.ttis} TTIs)"
