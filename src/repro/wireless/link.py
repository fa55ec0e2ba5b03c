"""The wireless downlink: serves a queue with AMPDU bursts under contention.

The serving loop models one transmission opportunity (txop) at a time:

1. wait the contention access delay (grows with interferers),
2. aggregate up to ``max_ampdu_packets`` / ``max_ampdu_bytes`` of the
   queue head into one AMPDU — this is the bursty-departure behaviour
   that motivates the Fortune Teller's qShort/maxBurstSize handling,
3. transmit the AMPDU at the channel's current rate (airtime-share
   scaled), then deliver all aggregated packets simultaneously after
   the propagation delay.

Departure callbacks fire at dequeue time (when packets leave the
network-layer queue to the driver), matching where Zhuge measures
``txRate`` and ``dequeueIntvl``.  An AMPDU's finish and arrival ride
two :class:`~repro.sim.engine.TimedRun` streams instead of an event
each; ``tests/reference_links.py`` keeps the per-event chain as oracle.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.wireless.channel import WirelessChannel
from repro.wireless.interference import InterferenceModel

DeliverCallback = Callable[[list[Packet]], None]


class WirelessLink:
    """Queue-serving wireless hop (AP -> client)."""

    def __init__(self, sim: Simulator, channel: WirelessChannel,
                 queue: DropTailQueue,
                 interference: Optional[InterferenceModel] = None,
                 propagation_delay: float = 0.002,
                 max_ampdu_packets: int = 16,
                 max_ampdu_bytes: int = 24_000,
                 per_txop_overhead: float = 0.0003,
                 name: str = "wifi",
                 domain=None):
        if max_ampdu_packets < 1:
            raise ValueError("max_ampdu_packets must be >= 1")
        self.sim = sim
        self.channel = channel
        self.queue = queue
        self.interference = interference
        #: Shared-channel arbiter (:mod:`repro.wireless.contention`);
        #: ``None`` for single-AP topologies — the legacy fast path.
        self.domain = domain
        if domain is not None:
            domain.register(self)
        self.propagation_delay = propagation_delay
        self.max_ampdu_packets = max_ampdu_packets
        self.max_ampdu_bytes = max_ampdu_bytes
        self.per_txop_overhead = per_txop_overhead
        self.name = name
        #: The receiver: one call per AMPDU with the packets that
        #: survived the air, in order.
        self.deliver_batch: Optional[DeliverCallback] = None
        self._serving = False
        self.txops = 0
        self.packets_sent = 0
        #: Fault hooks (:mod:`repro.faults`). While ``blocked`` the
        #: serving loop parks (arrivals keep queueing); ``fault_drop``
        #: is an optional ``packet -> bool`` predicate consulted at
        #: delivery time (True = the packet is lost over the air).
        self.blocked = False
        self.fault_drop: Optional[Callable[[Packet], bool]] = None
        self.fault_dropped = 0
        #: Tracing probe (:class:`repro.obs.bus.TraceBus`); ``None`` =
        #: disabled. Rate-change events are deduplicated against the
        #: last traced rate so the track stays step-shaped.
        self.trace = None
        self._traced_rate: Optional[float] = None
        #: Serve/transmit keep their own instants (contention RNG draws,
        #: queue reads); a zero-delay transmit is a ``tail_call``.
        self._finish_run = sim.timed_run(self._finish)
        self._arrive_run = sim.timed_run(self._arrive)

    def send(self, packet: Packet) -> None:
        """Accept a downlink packet (enqueue; kick the server if idle)."""
        if not self.queue.enqueue(packet, self.sim._now):
            return
        if not self._serving and not self.blocked:
            self._serving = True
            self.sim.schedule(0.0, self._serve_txop)

    def block(self) -> None:
        """Stop serving (link blackout); arrivals keep queueing."""
        self.blocked = True

    def unblock(self) -> None:
        """Resume serving; kicks the loop if a backlog accumulated."""
        self.blocked = False
        if not self._serving and not self.queue.is_empty:
            self._serving = True
            self.sim.schedule(0.0, self._serve_txop)

    def _serve_txop(self) -> None:
        if self.blocked:
            self._serving = False
            return
        if self.queue.is_empty:
            self._serving = False
            return
        access_delay = 0.0
        if self.interference is not None:
            access_delay = self.interference.access_delay()
        if self.domain is not None:
            access_delay += self.domain.access_delay(self.sim.now)
        if access_delay == 0.0:
            self.sim.tail_call(self._transmit_ampdu)
        else:
            self.sim.schedule(access_delay, self._transmit_ampdu)

    def _transmit_ampdu(self) -> None:
        if self.blocked:
            # A blackout hit between the access-delay grant and the
            # transmission; the txop is forfeited.
            self._serving = False
            return
        # Aggregate the head of the queue into one AMPDU. All packets in
        # the AMPDU dequeue at the same instant (bursty departures).
        ampdu = self.queue.dequeue_burst(self.sim.now,
                                         self.max_ampdu_packets,
                                         self.max_ampdu_bytes)
        if not ampdu:
            # The AQM dropped the rest of the backlog; try again.
            self.sim.tail_call(self._serve_txop)
            return
        ampdu_bytes = 0
        for packet in ampdu:
            ampdu_bytes += packet.size

        rate = self.channel.rate_at(self.sim.now)
        if self.interference is not None:
            rate *= self.interference.airtime_share
        rate = max(rate, 1_000.0)
        airtime = (ampdu_bytes * 8) / rate + self.per_txop_overhead
        if self.domain is not None:
            self.domain.occupy(self.sim.now, airtime)
        self.txops += 1
        self.packets_sent += len(ampdu)
        if self.trace is not None:
            if rate != self._traced_rate:
                self.trace.link_rate(self, rate)
                self._traced_rate = rate
            self.trace.link_txop(self, len(ampdu), ampdu_bytes, airtime,
                                 rate)
        self._finish_run.push(self.sim._now + airtime, ampdu)

    def _finish(self, ampdu: list[Packet]) -> None:
        """The AMPDU left the air: start propagating it, grant the next
        txop (only one AMPDU occupies the air at a time)."""
        self._arrive_run.push(self.sim._now + self.propagation_delay, ampdu)
        self._serve_txop()

    def _arrive(self, ampdu: list[Packet]) -> None:
        """The AMPDU reached the client: each packet passes the fault
        predicate and the trace probe, then the survivors go to the
        receiver in one call."""
        deliver_batch = self.deliver_batch
        if deliver_batch is None:
            return
        sim = self.sim
        sim.packets_processed += len(ampdu)
        now = sim._now
        fault_drop = self.fault_drop
        trace = self.trace
        survivors = []
        append = survivors.append
        for packet in ampdu:
            if fault_drop is not None and fault_drop(packet):
                self.fault_dropped += 1
                continue
            packet.received_at = now
            if trace is not None:
                trace.link_delivery(self, packet)
            append(packet)
        if survivors:
            deliver_batch(survivors)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WirelessLink({self.name}, {self.txops} txops)"
