"""Drop-tail queue with the observability hooks Zhuge needs.

The queue exposes, at any instant:

* ``byte_length`` / ``packet_length`` — current backlog,
* ``front_wait_time(now)`` — how long the head packet has waited so far
  (the ``qShort`` signal of the Fortune Teller),
* arrival/departure callbacks so a middlebox can observe every packet
  without the queue knowing about it.

Queue disciplines that reorder or drop differently (CoDel, FQ-CoDel)
wrap or subclass this class; see :mod:`repro.aqm`. The scenario kinds
``fifo`` and ``droptail`` are both this class itself
(``repro.aqm.FifoQueue`` is an alias, not a subclass).

``dequeue_burst`` (PR 6) drains a txop's worth of head packets in one
call — the wireless link's AMPDU aggregation loop without the
per-packet ``front``/``dequeue`` dispatch — while firing exactly the
same per-packet stats, trace probes, and departure callbacks in the
same order as repeated ``dequeue`` calls would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.packet import Packet


@dataclass(slots=True)
class QueueStats:
    """Counters accumulated over the queue's lifetime."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    bytes_enqueued: int = 0
    bytes_dequeued: int = 0
    bytes_dropped: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)

    def record_drop(self, packet: Packet, reason: str) -> None:
        self.dropped += 1
        self.bytes_dropped += packet.size
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1


ArrivalCallback = Callable[[Packet, "DropTailQueue"], None]
DepartureCallback = Callable[[Packet, "DropTailQueue"], None]
DropCallback = Callable[[Packet, str], None]


class DropTailQueue:
    """FIFO byte-bounded queue.

    Packets above ``capacity_bytes`` are dropped at the tail. Each packet
    is stamped with its enqueue time so waiting times are measurable.
    """

    def __init__(self, capacity_bytes: int = 375_000, name: str = "queue"):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._packets: deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        self.on_arrival: list[ArrivalCallback] = []
        self.on_departure: list[DepartureCallback] = []
        #: Burst forms of the ``on_departure`` subscribers.
        #: ``dequeue_burst`` fires one ``callback(burst, queue)`` per
        #: subscriber instead of one per packet — bursts of one
        #: included — but only when *every* per-packet subscriber
        #: registered a burst form here (the lists are appended to in
        #: pairs).  A burst form must be observably identical to
        #: looping the per-packet callback over the burst, must not
        #: read queue state (it runs after the whole burst drained,
        #: not mid-drain), and must not depend on ordering relative to
        #: other subscribers.
        self.on_departure_batch: list = []
        self.on_drop: list[DropCallback] = []
        #: Tracing probe (:class:`repro.obs.bus.TraceBus`); ``None`` =
        #: disabled, and every probe site is a single attribute check.
        self.trace = None
        #: True only for exact DropTailQueue instances: subclasses (AQMs)
        #: may override dequeue/_pop_head, so ``dequeue_burst`` must
        #: take the generic per-packet path.
        self._plain = type(self) is DropTailQueue

    # -- state inspection -------------------------------------------------

    @property
    def byte_length(self) -> int:
        """Bytes currently queued."""
        return self._bytes

    @property
    def packet_length(self) -> int:
        """Packets currently queued."""
        return len(self._packets)

    @property
    def is_empty(self) -> bool:
        return not self._packets

    def front(self) -> Optional[Packet]:
        """Peek the head packet without removing it."""
        return self._packets[0] if self._packets else None

    def front_wait_time(self, now: float) -> float:
        """Seconds the head packet has waited so far (0 if empty)."""
        head = self.front()
        if head is None or head.enqueued_at is None:
            return 0.0
        return max(0.0, now - head.enqueued_at)

    # -- mutation ----------------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Append ``packet``; returns False (and drops) when full."""
        if self._bytes + packet.size > self.capacity_bytes:
            self._drop(packet, "tail-overflow")
            return False
        packet.enqueued_at = now
        self._packets.append(packet)
        self._bytes += packet.size
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size
        if self.trace is not None:
            self.trace.queue_enqueue(self, packet)
        for callback in self.on_arrival:
            callback(packet, self)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty.

        Subclasses (AQMs) may drop packets here before returning one.
        """
        packet = self._pop_head(now)
        if packet is not None:
            for callback in self.on_departure:
                callback(packet, self)
        return packet

    def dequeue_burst(self, now: float, max_packets: int,
                      max_bytes: int) -> list[Packet]:
        """Drain up to ``max_packets`` head packets in one call.

        The byte cap applies from the second packet on (the head always
        transmits, even oversized), matching AMPDU aggregation. Per
        packet, the stats / trace / departure-callback sequence is
        exactly what repeated :meth:`dequeue` calls produce, so burst
        draining is observably identical — just cheaper.

        Subclasses that override :meth:`dequeue` or :meth:`_pop_head`
        (AQMs that drop at the head) are served by a generic loop over
        the public interface instead of the direct-deque fast path.
        """
        if not self._plain:
            burst: list[Packet] = []
            burst_bytes = 0
            while len(burst) < max_packets and not self.is_empty:
                head = self.front()
                if (burst and head is not None
                        and burst_bytes + head.size > max_bytes):
                    break
                packet = self.dequeue(now)
                if packet is None:
                    break
                burst.append(packet)
                burst_bytes += packet.size
            return burst

        packets = self._packets
        if not packets:
            return []
        popleft = packets.popleft
        stats = self.stats
        trace = self.trace
        departures = self.on_departure
        # Batch departure dispatch: when every subscriber has a burst
        # form, fire each once with the whole burst (all stamped with
        # one ``now``) instead of once per packet.
        use_batch = (bool(departures)
                     and len(self.on_departure_batch) == len(departures))
        fire = bool(departures) and not use_batch
        burst = []
        append = burst.append
        burst_bytes = 0
        count = 0
        while packets and count < max_packets:
            head = packets[0]
            size = head.size
            if count and burst_bytes + size > max_bytes:
                break
            popleft()
            self._bytes -= size
            head.dequeued_at = now
            stats.dequeued += 1
            stats.bytes_dequeued += size
            if trace is not None:
                trace.queue_dequeue(self, head)
            append(head)
            burst_bytes += size
            count += 1
            if fire:
                for callback in departures:
                    callback(head, self)
        if use_batch and burst:
            for callback in self.on_departure_batch:
                callback(burst, self)
        return burst

    def _pop_head(self, now: float) -> Optional[Packet]:
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self._bytes -= packet.size
        packet.dequeued_at = now
        self.stats.dequeued += 1
        self.stats.bytes_dequeued += packet.size
        if self.trace is not None:
            self.trace.queue_dequeue(self, packet)
        return packet

    def _drop(self, packet: Packet, reason: str) -> None:
        self.stats.record_drop(packet, reason)
        if self.trace is not None:
            self.trace.queue_drop(self, packet, reason)
        for callback in self.on_drop:
            callback(packet, reason)

    def clear(self) -> None:
        """Discard all queued packets without counting them as drops."""
        self._packets.clear()
        self._bytes = 0

    def trim_head(self, limit_bytes: int, reason: str) -> int:
        """Drop *head* packets until the backlog fits ``limit_bytes``.

        The inverse of tail-dropping: the oldest packets are the stalest
        ones, and for real-time traffic a stale packet delivered late is
        worth less than the loss signal its drop produces. The control
        layer uses this when a policy clamps the queue mid-backlog.
        Returns the number dropped; stats and drop callbacks fire per
        packet, exactly like an overflow drop.
        """
        dropped = 0
        while self._packets and self._bytes > limit_bytes:
            packet = self._packets.popleft()
            self._bytes -= packet.size
            self._drop(packet, reason)
            dropped += 1
        return dropped

    def trim_aged(self, now: float, max_age: float, reason: str) -> int:
        """Drop head packets that have waited longer than ``max_age``.

        A sojourn ceiling for real-time traffic: once a packet has
        queued past the bound it will arrive too late to matter, so it
        is shed where it stands instead of consuming link time. Stops
        at the first young-enough packet (FIFO order means everything
        behind it is younger still). Returns the number dropped.
        """
        dropped = 0
        while self._packets:
            head = self._packets[0]
            if head.enqueued_at is None or now - head.enqueued_at <= max_age:
                break
            self._packets.popleft()
            self._bytes -= head.size
            self._drop(head, reason)
            dropped += 1
        return dropped

    def drop_all(self, reason: str) -> int:
        """Drop every queued packet, firing stats and drop callbacks.

        Unlike :meth:`clear`, this is an observable loss event (a client
        roam flushing in-flight packets): the AP's loss reporting and
        the trace see every packet. Returns the number dropped.

        The backlog is drained to a local list *before* any ``on_drop``
        callback fires, so a callback that re-enqueues into this queue
        (a retransmit shim, say) sees a consistent empty queue and its
        packet is not swept into the same flush.
        """
        if not self._packets:
            return 0
        drained = list(self._packets)
        self._packets.clear()
        self._bytes = 0
        for packet in drained:
            self._drop(packet, reason)
        return len(drained)

    def __len__(self) -> int:
        return len(self._packets)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"{type(self).__name__}({self.name}: "
                f"{len(self._packets)} pkts, {self._bytes} B)")
