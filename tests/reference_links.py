"""Oracles for the link layers: one scheduled event per hop.

The bodies below are the per-packet event chains both links ran before
the macro-event datapath became their only dispatch path, kept
verbatim.

``ClassicWiredLink`` enqueues into its ``DropTailQueue``, schedules a
serialization-finish event per packet, dequeues the next packet from
there, and schedules a propagation-arrival event per packet; a pure
delay line schedules one arrival event per packet.  ``WiredLink``
instead computes start, finish and arrival in place and pushes the
packet onto one ``TimedRun``.

``ClassicWirelessLink`` schedules the AMPDU's finish and arrival as two
events per txop and hands each packet to the receiver as a list of
one; ``WirelessLink`` pushes them onto two ``TimedRun`` streams and
hands over the AMPDU's survivors in one list.

The runs the base classes build in ``__init__`` stay empty here (they
bind the overridden ``_finish``/``_arrive`` but nothing pushes onto
them).  ``tests/test_event_model.py`` swaps these classes into
``repro.topology.builder`` and requires every scenario to land on the
same summary digest.
"""

from collections import deque

from repro.net.link import WiredLink
from repro.wireless.link import WirelessLink


class ClassicWiredLink(WiredLink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        del self.send  # the per-instance fast path; use the class method
        self._busy = False
        self._tx_packet = None
        self._inflight = deque()

    def send(self, packet) -> None:
        """Accept a packet for transmission (may queue or drop it)."""
        if self.rate_bps is None:
            # Infinite-rate delay line: bypass the queue entirely.
            self._inflight.append(packet)
            self.sim.schedule(self.delay, self._arrive)
            return
        if self.queue.enqueue(packet, self.sim.now) and not self._busy:
            self._start_transmission()

    def send_batch(self, packets: list) -> None:
        send = self.send
        for packet in packets:
            send(packet)

    def _start_transmission(self) -> None:
        packet = self.queue.dequeue(self.sim.now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._tx_packet = packet
        tx_time = packet.size * 8 / self.rate_bps
        self.sim.schedule(tx_time, self._finish)

    def _finish(self) -> None:
        self._inflight.append(self._tx_packet)
        self._tx_packet = None
        self.sim.schedule(self.delay, self._arrive)
        self._start_transmission()

    def _arrive(self) -> None:
        packet = self._inflight.popleft()
        if self.deliver is not None:
            self.sim.packets_processed += 1
            packet.received_at = self.sim.now
            self.deliver(packet)


class ClassicWirelessLink(WirelessLink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: AMPDU currently on the air (between transmit and finish) and
        #: AMPDUs propagating to the client, oldest first.
        self._tx_ampdu = None
        self._arrivals = deque()

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
            self.sim.schedule(0.0, self._serve_txop)
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
        self._tx_ampdu = ampdu
        self.sim.schedule(airtime, self._finish)

    def _finish(self) -> None:
        # Only one AMPDU occupies the air at a time: the next txop is
        # granted from here, so the slot is always ours to take.
        self._arrivals.append(self._tx_ampdu)
        self._tx_ampdu = None
        self.sim.schedule(self.propagation_delay, self._arrive)
        self._serve_txop()

    def _arrive(self) -> None:
        # Arrival events fire in the order their AMPDUs were appended
        # (finish times and propagation delay are monotone), so the
        # oldest in-flight AMPDU is the one landing now.
        ampdu = self._arrivals.popleft()
        if self.deliver_batch is None:
            return
        self.sim.packets_processed += len(ampdu)
        for packet in ampdu:
            fault_drop = self.fault_drop
            if fault_drop is not None and fault_drop(packet):
                self.fault_dropped += 1
                continue
            packet.received_at = self.sim.now
            if self.trace is not None:
                self.trace.link_delivery(self, packet)
            self.deliver_batch([packet])
