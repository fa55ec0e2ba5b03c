"""Oracles for the AP datapath: per-packet observers, identity gates.

The bodies below are the queue, Fortune Teller and wireless-link bodies
that ran before every queue kind drained as a burst, kept verbatim.

* ``DropTailQueue.dequeue`` / ``dequeue_burst`` / ``_pop_head``: the
  exact class took a direct-deque drain (``_plain``) and fired one
  burst callback per subscriber only when every per-packet subscriber
  had registered one on ``on_departure_batch``; every subclass took a
  generic ``front()`` / ``dequeue`` loop.
* ``CoDelQueue.dequeue`` and ``FqCoDelQueue.dequeue``: each popped one
  packet (head drops, DRR pick), counted it and fired the per-packet
  departure observers itself, so an AQM's departures reached the
  Fortune Teller one packet at a time, between pops.
* ``FortuneTeller``: a per-packet and a burst departure method, a flow
  filter for each, and ``predict`` reading the queue's fields directly
  when ``_fast_predict`` held (no flow, the exact drop-tail class).
* ``WirelessLink.send`` inlined the drop-tail enqueue when the queue
  was ``_plain`` and unprobed; ``_arrive`` handed the AMPDU to
  ``deliver_batch`` or looped ``deliver`` when no fault predicate or
  trace probe was set, and otherwise went packet by packet.

Two substitutions keep the identity gates meaningful on subclasses:
``type(self) is DropTailQueue`` reads ``ReferenceDropTailQueue``, and
the reference FQ-CoDel builds reference CoDel sub-queues.
``tests/test_reference_datapath.py`` requires the ``src/repro`` bodies
to produce exactly what these do.
"""

from typing import Optional

from repro.aqm.codel import CoDelQueue
from repro.aqm.fq_codel import FqCoDelQueue
from repro.core.fortune_teller import DelayPrediction, FortuneTeller
from repro.core.sliding_window import (
    DEFAULT_WINDOW,
    BurstSizeTracker,
    DequeueIntervalEstimator,
    SlidingWindowRate,
)
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.wireless.link import WirelessLink


class _ReferenceQueue:
    """The drop-tail bodies every reference queue kind shares."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_departure_batch: list = []
        self._plain = type(self) is ReferenceDropTailQueue

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self._pop_head(now)
        if packet is not None:
            for callback in self.on_departure:
                callback(packet, self)
        return packet

    def dequeue_burst(self, now: float, max_packets: int,
                      max_bytes: int) -> list[Packet]:
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


class ReferenceDropTailQueue(_ReferenceQueue, DropTailQueue):
    pass


class ReferenceCoDelQueue(_ReferenceQueue, CoDelQueue):
    def _drop_popped(self, packet: Packet) -> None:
        self.stats.dequeued -= 1
        self.stats.bytes_dequeued -= packet.size
        self._drop(packet, "codel")

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self._pop_head(now)
        if packet is None:
            self._dropping = False
            return None

        if self._dropping:
            if self._sojourn_ok(packet, now) or self._bytes_below_mtu():
                self._dropping = False
                self._first_above_time = 0.0
            else:
                while (self._dropping and now >= self._drop_next
                       and packet is not None):
                    self._drop_popped(packet)
                    self._drop_count += 1
                    packet = self._pop_head(now)
                    if packet is None:
                        self._dropping = False
                        break
                    if self._sojourn_ok(packet, now) or self._bytes_below_mtu():
                        self._dropping = False
                    else:
                        self._drop_next = self._control_law(self._drop_next)
        elif self._should_enter_drop(now, packet):
            self._drop_popped(packet)
            packet = self._pop_head(now)
            self._dropping = True
            delta = self._drop_count - self._last_drop_count
            if delta > 1 and now - self._drop_next < 16 * self.interval:
                self._drop_count = delta
            else:
                self._drop_count = 1
            self._drop_next = self._control_law(now)
            self._last_drop_count = self._drop_count

        if packet is not None:
            for callback in self.on_departure:
                callback(packet, self)
        return packet


class ReferenceFqCoDelQueue(_ReferenceQueue, FqCoDelQueue):
    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.byte_length + packet.size > self.capacity_bytes:
            self._drop(packet, "tail-overflow")
            return False
        flow = packet.flow
        sub = self._flows.get(flow)
        if sub is None:
            sub = ReferenceCoDelQueue(capacity_bytes=self.capacity_bytes,
                                      name=f"{self.name}[{flow.src_port}]",
                                      target=self._target,
                                      interval=self._interval)
            sub.on_drop.append(lambda p, reason: self._sub_drop(p, reason))
            self._flows[flow] = sub
        if flow not in self._deficit:
            self._deficit[flow] = self.quantum
            self._active.append(flow)
        accepted = sub.enqueue(packet, now)
        if accepted:
            self.stats.enqueued += 1
            self.stats.bytes_enqueued += packet.size
            for callback in self.on_arrival:
                callback(packet, self)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
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
                self._deficit[flow] += self.quantum
                self._active.rotate(-1)
                continue
            packet = sub.dequeue(now)
            if packet is None:
                continue
            self._deficit[flow] -= packet.size
            self.stats.dequeued += 1
            self.stats.bytes_dequeued += packet.size
            for callback in self.on_departure:
                callback(packet, self)
            return packet
        return None


class ReferenceFortuneTeller(FortuneTeller):
    def __init__(self, sim: Simulator, queue: DropTailQueue,
                 window: float = DEFAULT_WINDOW,
                 burst_correction: bool = True,
                 record_predictions: bool = False,
                 flow=None,
                 min_estimation_interval: float = 0.0):
        self.sim = sim
        self.queue = queue
        self.flow = flow
        self.burst_correction = burst_correction
        self.tx_rate = SlidingWindowRate(window)
        self.tx_rate_long = SlidingWindowRate(window * 10)
        self.dequeue_intervals = DequeueIntervalEstimator(window)
        self.burst_tracker = BurstSizeTracker()
        self.record_predictions = record_predictions
        self.min_estimation_interval = min_estimation_interval
        self._cached_prediction: Optional[DelayPrediction] = None
        self._cached_at = -1.0
        self.cache_hits = 0
        self.records = {}
        self.predictions_made = 0
        self._has_flow_queue = hasattr(queue, "flow_queue")
        self._fast_predict = (flow is None
                              and type(queue) is ReferenceDropTailQueue)
        if flow is None:
            queue.on_departure.append(self.observe_departure)
            queue.on_departure_batch.append(self.observe_departure_batch)
        else:
            queue.on_departure.append(self._on_queue_departure)
            queue.on_departure_batch.append(self._on_queue_departure_batch)

    def _on_queue_departure(self, packet: Packet, queue: DropTailQueue) -> None:
        if packet.flow == self.flow:
            self.observe_departure(packet)

    def _on_queue_departure_batch(self, packets: list,
                                  queue: DropTailQueue = None) -> None:
        matched = [packet for packet in packets if packet.flow == self.flow]
        if matched:
            self.observe_departure_batch(matched)

    def observe_departure(self, packet: Packet, queue=None) -> None:
        now = packet.dequeued_at
        if now is None:
            now = self.sim._now
        size = packet.size
        self.tx_rate.record(now, size)
        self.tx_rate_long.record(now, size)
        self.dequeue_intervals.record_departure(now)
        self.burst_tracker.record_departure(now, size)

    def observe_departure_batch(self, packets: list, queue=None) -> None:
        if (self.dequeue_intervals.min_interval <= 0.0
                or self.burst_tracker.resolution <= 0.0):
            for packet in packets:
                self.observe_departure(packet)
            return
        head = packets[0]
        now = head.dequeued_at
        if now is None:
            now = self.sim._now
        count = len(packets)
        total = 0
        for packet in packets:
            total += packet.size
        self.tx_rate.record(now, total, count)
        self.tx_rate_long.record(now, total, count)
        self.dequeue_intervals.record_departure(now, count)
        self.burst_tracker.record_departure(now, total, head.size, count)

    def predict(self) -> DelayPrediction:
        now = self.sim._now
        if (self.min_estimation_interval > 0
                and self._cached_prediction is not None
                and now - self._cached_at < self.min_estimation_interval):
            self.cache_hits += 1
            return self._cached_prediction

        queue = self.queue
        if self._fast_predict:
            q_bytes = queue._bytes
            packets = queue._packets
            enqueued = packets[0].enqueued_at if packets else None
            front_wait = (max(0.0, now - enqueued)
                          if enqueued is not None else 0.0)
        else:
            if self.flow is not None and self._has_flow_queue:
                queue = queue.flow_queue(self.flow)
            if queue is None:
                q_bytes, front_wait = 0, 0.0
            else:
                q_bytes = queue.byte_length
                front_wait = queue.front_wait_time(now)

        if self.burst_correction:
            q_bytes = max(
                q_bytes - self.burst_tracker.max_burst_bytes(now), 0)
        rate = self.tx_rate.rate_bps(now)
        if rate <= 0:
            rate = self.tx_rate_long.rate_bps(now)
        q_long = (q_bytes * 8 / rate) if rate > 0 else 0.0
        tx = self.dequeue_intervals.average_interval(now)

        self.predictions_made += 1
        prediction = DelayPrediction(q_long, front_wait, tx)
        self._cached_prediction = prediction
        self._cached_at = now
        return prediction


class ReferenceWirelessLink(WirelessLink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deliver = None
        self.deliver_batch = None

    def send(self, packet: Packet) -> None:
        queue = self.queue
        if queue._plain and queue.trace is None and not queue.on_arrival:
            size = packet.size
            if queue._bytes + size > queue.capacity_bytes:
                queue._drop(packet, "tail-overflow")
                return
            packet.enqueued_at = self.sim._now
            queue._packets.append(packet)
            queue._bytes += size
            stats = queue.stats
            stats.enqueued += 1
            stats.bytes_enqueued += size
        elif not queue.enqueue(packet, self.sim.now):
            return
        if not self._serving and not self.blocked:
            self._serving = True
            self.sim.schedule(0.0, self._serve_txop)

    def _arrive(self, ampdu: list[Packet]) -> None:
        if self.deliver is None:
            return
        sim = self.sim
        sim.packets_processed += len(ampdu)
        if self.fault_drop is None and self.trace is None:
            now = sim._now
            deliver_batch = self.deliver_batch
            if deliver_batch is not None:
                for packet in ampdu:
                    packet.received_at = now
                deliver_batch(ampdu)
                return
            deliver = self.deliver
            for packet in ampdu:
                packet.received_at = now
                deliver(packet)
            return
        for packet in ampdu:
            fault_drop = self.fault_drop
            if fault_drop is not None and fault_drop(packet):
                self.fault_dropped += 1
                continue
            packet.received_at = sim.now
            if self.trace is not None:
                self.trace.link_delivery(self, packet)
            self.deliver(packet)
