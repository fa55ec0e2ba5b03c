"""Wired point-to-point link: serialization (bytes / rate) plus fixed
propagation delay.  The WAN segment between the sender and the AP is a
``WiredLink``; the wireless hop is modelled in :mod:`repro.wireless`.

Analytic virtual server
-----------------------
The link never wakes up per hop.  ``send`` computes the packet's
serialization start (``max(now, tail_finish)``), finish
(``start + size*8/rate``) and arrival (``finish + delay``) in place and
extends one :class:`~repro.sim.engine.TimedRun` arrival stream with
``[packet]`` — one sentinel heap entry per busy period instead of a
serialization and a propagation event per packet; same-instant sends
with nothing scheduled between them (a txop's worth of ACKs on a pure
delay line) join one burst, one dispatch.  A *committed-bytes* ledger
keeps tail drop exact: packets whose serialization has not started still
occupy capacity, as in a FIFO that dequeues at each start instant; the
queue's stats and the ``enqueued_at`` / ``dequeued_at`` stamps are that
FIFO's.  ``tests/reference_links.py`` keeps the per-packet event chain
as the oracle these trajectories are pinned against.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator

DeliverCallback = Callable[[Packet], None]


class WiredLink:
    """Fixed-rate link with propagation delay and an egress queue.

    ``rate_bps=None`` means infinite rate (pure delay line), which is
    how we model uncongested reverse WAN paths.

    ``send`` is bound once, at construction: the delay line when there
    is no rate, the analytic server otherwise.  The link's own
    :class:`DropTailQueue` is a capacity and stats ledger — the server
    implements tail drop and nothing else, never calls the queue's
    ``enqueue``/``dequeue`` and fires no observers or trace probes.
    AQM, observers and probes belong on wireless edges.
    """

    def __init__(self, sim: Simulator, rate_bps: Optional[float],
                 delay: float, name: str = "link"):
        if not 0 <= delay < math.inf:
            raise ValueError(
                f"delay must be finite and non-negative: {delay}")
        if rate_bps is not None and not 0 < rate_bps < math.inf:
            raise ValueError(
                f"rate must be finite and positive, or None: {rate_bps}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = DropTailQueue(name=f"{name}-q")
        self.name = name
        self.deliver: Optional[DeliverCallback] = None
        #: Optional whole-burst delivery callback, preferred over
        #: ``deliver`` when set: must be observably identical to calling
        #: ``deliver`` per packet.  It receives each arrival burst (the
        #: packets of one run item, in send order) in one call.
        self.deliver_batch: Optional[Callable[[list], None]] = None
        self._arrive_extend = sim.timed_run(self._arrive).extend
        #: Analytic-server state: absolute time the serializer frees,
        #: and the (start, size) ledger of accepted packets whose
        #: serialization has not begun — they still occupy capacity.
        self._tail_finish = 0.0
        self._committed: "deque[tuple[float, int]]" = deque()
        self._phantom_bytes = 0
        self.send: Callable[[Packet], None] = (
            self._delay_send if rate_bps is None else self._send)

    def _delay_send(self, packet: Packet) -> None:
        """Delay line: no queue; the packet joins the arrival burst."""
        self._arrive_extend(self.sim.now + self.delay, [packet])

    def send_batch(self, packets: list) -> None:
        """Send several packets at one instant.

        On a delay line the batch is one burst extension (of a copy:
        the caller keeps its list) — observably identical to looping
        ``send``, which joins them one by one.  Rate-limited links loop.
        """
        if self.rate_bps is not None:
            for packet in packets:
                self._send(packet)
        elif packets:
            self._arrive_extend(self.sim.now + self.delay, list(packets))

    def _send(self, packet: Packet) -> None:
        """Analytic virtual server: queue+serialize+propagate in place.

        The timestamps are the per-packet chain's float expressions in
        its order (``start + size * 8 / rate``, then ``finish + delay``),
        so they are bit-identical to it.  The settle loop releases
        capacity held by packets whose serialization has started
        (``start <= now``) — a FIFO dequeues exactly at those start
        times, so the ledger equals its byte count at every send.
        """
        now = self.sim.now
        committed = self._committed
        phantom = self._phantom_bytes
        while committed and committed[0][0] <= now:
            phantom -= committed.popleft()[1]
        queue = self.queue
        size = packet.size
        if queue._bytes + phantom + size > queue.capacity_bytes:
            self._phantom_bytes = phantom
            queue._drop(packet, "tail-overflow")
            return
        start = self._tail_finish
        if start < now:
            start = now
        finish = start + size * 8 / self.rate_bps
        self._tail_finish = finish
        packet.enqueued_at = now
        packet.dequeued_at = start
        stats = queue.stats
        stats.enqueued += 1
        stats.bytes_enqueued += size
        stats.dequeued += 1
        stats.bytes_dequeued += size
        committed.append((start, size))
        self._phantom_bytes = phantom + size
        self._arrive_extend(finish + self.delay, [packet])

    def _arrive(self, packets: list) -> None:
        """TimedRun dispatcher: one arrival burst, in send order, to
        ``deliver_batch`` in one call, or else to ``deliver`` per packet
        (each packet's ``received_at`` stamped just before its call)."""
        sim = self.sim
        now = sim.now
        deliver = self.deliver_batch
        if deliver is not None:
            sim.packets_processed += len(packets)
            for packet in packets:
                packet.received_at = now
            deliver(packets)
        elif self.deliver is not None:
            sim.packets_processed += len(packets)
            deliver = self.deliver
            for packet in packets:
                packet.received_at = now
                deliver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        rate = "inf" if self.rate_bps is None else f"{self.rate_bps / 1e6:.1f}Mbps"
        return f"WiredLink({self.name}, {rate}, {self.delay * 1e3:.1f}ms)"
