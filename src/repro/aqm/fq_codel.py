"""FQ-CoDel: per-flow isolation with deficit round-robin + CoDel.

The paper notes (§4.1, "Calculation with queue disciplines") that real
systems default to fq_codel, so the Fortune Teller must read the
statistics of *the RTC flow's own sub-queue*. This class therefore
exposes ``flow_queue(five_tuple)``, and its ``backlog`` reads the named
flow's sub-queue, so Zhuge can observe a single flow.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.aqm.codel import CoDelQueue
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import AqmQueue

#: Deficit round-robin quantum: one full Ethernet frame per round.
QUANTUM = 1514


class FqCoDelQueue(AqmQueue):
    """Flow-isolating queue aggregate.

    Each five-tuple gets its own :class:`CoDelQueue`; dequeue serves
    sub-queues in deficit round-robin with a per-round ``QUANTUM``.
    The aggregate presents the DropTailQueue interface: ``byte_length``
    and ``packet_length`` sum the sub-queues, ``front_wait_time`` reports
    the wait of the packet that would be dequeued next.
    """

    def __init__(self, capacity_bytes: int = 375_000, name: str = "fq_codel"):
        super().__init__(capacity_bytes=capacity_bytes, name=name)
        self._flows: dict[FiveTuple, CoDelQueue] = {}
        self._active: deque[FiveTuple] = deque()
        self._deficit: dict[FiveTuple, int] = {}

    # -- flow access (used by Zhuge per §4.1) ------------------------------

    def flow_queue(self, flow: FiveTuple) -> Optional[CoDelQueue]:
        """The sub-queue holding ``flow``'s packets, if it exists."""
        return self._flows.get(flow)

    @property
    def flow_count(self) -> int:
        return len(self._flows)

    # -- aggregate state ---------------------------------------------------

    @property
    def byte_length(self) -> int:
        return sum(q.byte_length for q in self._flows.values())

    @property
    def packet_length(self) -> int:
        return sum(q.packet_length for q in self._flows.values())

    @property
    def is_empty(self) -> bool:
        return not self._active

    def front(self) -> Optional[Packet]:
        flow = self._next_flow_peek()
        if flow is None:
            return None
        return self._flows[flow].front()

    def backlog(self, now: float, flow=None) -> tuple[int, float]:
        """The aggregate's, or with ``flow`` that flow's own sub-queue's
        (nothing is queued for a flow the discipline has not seen)."""
        if flow is None:
            return self.byte_length, self.front_wait_time(now)
        sub = self._flows.get(flow)
        if sub is None:
            return 0, 0.0
        return sub.backlog(now)

    def _next_flow_peek(self) -> Optional[FiveTuple]:
        for flow in self._active:
            if not self._flows[flow].is_empty:
                return flow
        return None

    # -- mutation ----------------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.byte_length + packet.size > self.capacity_bytes:
            self._drop(packet, "tail-overflow")
            return False
        flow = packet.flow
        sub = self._flows.get(flow)
        if sub is None:
            sub = CoDelQueue(capacity_bytes=self.capacity_bytes,
                             name=f"{self.name}[{flow.src_port}]")
            sub.on_drop.append(lambda p, reason: self._sub_drop(p, reason))
            self._flows[flow] = sub
        if flow not in self._deficit:
            self._deficit[flow] = QUANTUM
            self._active.append(flow)
        accepted = sub.enqueue(packet, now)
        if accepted:
            self.stats.enqueued += 1
            self.stats.bytes_enqueued += packet.size
            for callback in self.on_arrival:
                callback(packet, self)
        return accepted

    def _sub_drop(self, packet: Packet, reason: str) -> None:
        self.stats.record_drop(packet, reason)
        for callback in self.on_drop:
            callback(packet, reason)

    def _pop_head(self, now: float) -> Optional[Packet]:
        """Deficit round-robin: the next sub-queue with credit serves."""
        rounds = 0
        max_rounds = 2 * len(self._active) + 2
        while self._active and rounds < max_rounds:
            rounds += 1
            flow = self._active[0]
            sub = self._flows[flow]
            if sub.is_empty:
                self._active.popleft()
                del self._deficit[flow]
                del self._flows[flow]
                continue
            head = sub.front()
            if head is not None and self._deficit[flow] < head.size:
                self._deficit[flow] += QUANTUM
                self._active.rotate(-1)
                continue
            packet = sub.dequeue(now)
            if packet is None:
                # CoDel dropped the whole sub-queue backlog.
                continue
            self._deficit[flow] -= packet.size
            return packet
        return None

    def trim_head(self, limit_bytes: int, reason: str) -> int:
        """Drop the oldest head across the sub-queues (ties go to the
        earlier flow in round-robin order) until the backlog fits.

        Emptied sub-queues stay in the round-robin; the next DRR pass
        retires them, as it does one CoDel emptied.
        """
        dropped = 0
        # ``max``: a negative limit empties the queue, as on every kind.
        while self.byte_length > max(limit_bytes, 0):
            backlogged = [sub for sub in map(self._flows.get, self._active)
                          if len(sub)]
            oldest = min(backlogged, key=lambda sub: sub.front().enqueued_at)
            oldest._shed_head(reason)
            dropped += 1
        return dropped

    def trim_aged(self, now: float, max_age: float, reason: str) -> int:
        """Apply the sojourn ceiling to every sub-queue."""
        return sum(self._flows[flow].trim_aged(now, max_age, reason)
                   for flow in list(self._active))

    def clear(self) -> None:
        self._flows.clear()
        self._active.clear()
        self._deficit.clear()

    def drop_all(self, reason: str) -> int:
        """Flush every sub-queue as observable drops (client roam)."""
        dropped = 0
        for sub in self._flows.values():
            # Sub-queue drops propagate through _sub_drop, which fires
            # the aggregate's stats and on_drop callbacks.
            dropped += sub.drop_all(reason)
        self._flows.clear()
        self._active.clear()
        self._deficit.clear()
        return dropped

    def __len__(self) -> int:
        return self.packet_length
