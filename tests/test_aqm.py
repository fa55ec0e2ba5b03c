"""Tests for the AQM disciplines (FIFO, CoDel, FQ-CoDel)."""

import pytest

from repro.aqm import CoDelQueue, FifoQueue, FqCoDelQueue, make_queue
from repro.aqm.fq_codel import QUANTUM
from repro.net.packet import FiveTuple, Packet


class TestFactory:
    def test_make_queue_kinds(self):
        assert isinstance(make_queue("fifo"), FifoQueue)
        assert isinstance(make_queue("codel"), CoDelQueue)
        assert isinstance(make_queue("fq_codel"), FqCoDelQueue)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_queue("red")


class TestCoDel:
    def test_no_drops_below_target(self, flow):
        queue = CoDelQueue()
        now = 0.0
        for i in range(50):
            queue.enqueue(Packet(flow, 1000, seq=i), now)
            out = queue.dequeue(now + 0.001)  # 1 ms sojourn < 5 ms target
            assert out is not None
            now += 0.002
        assert queue.stats.dropped == 0

    def test_drops_start_after_interval_above_target(self, flow):
        queue = CoDelQueue()
        # Keep 20 packets queued; dequeue slowly so sojourn stays high.
        now = 0.0
        for i in range(100):
            queue.enqueue(Packet(flow, 1000, seq=i), now)
            now += 0.001
        # Dequeue with large sojourn times over > interval.
        drops_before = queue.stats.dropped
        t = 0.3
        for _ in range(30):
            queue.enqueue(Packet(flow, 1000), t)
            queue.dequeue(t)
            t += 0.02
        assert queue.stats.dropped > drops_before

    def test_drop_reason_recorded(self, flow):
        queue = CoDelQueue()
        now = 0.0
        for i in range(100):
            queue.enqueue(Packet(flow, 1000, seq=i), now)
        t = 0.5
        for _ in range(50):
            queue.dequeue(t)
            t += 0.05
        assert queue.stats.drop_reasons.get("codel", 0) > 0

    def test_small_backlog_never_dropped(self, flow):
        # CoDel exempts backlogs at or below one MTU.
        queue = CoDelQueue()
        now = 0.0
        for _ in range(200):
            queue.enqueue(Packet(flow, 1000), now)
            queue.dequeue(now + 1.0)  # huge sojourn, but single packet
            now += 1.1
        assert queue.stats.dropped == 0


class TestFqCoDel:
    def _flows(self, n):
        return [FiveTuple("s", "c", 100 + i, 200 + i) for i in range(n)]

    def test_flow_isolation_round_robin(self):
        queue = FqCoDelQueue()
        flow_a, flow_b = self._flows(2)
        for i in range(3):
            queue.enqueue(Packet(flow_a, 1000, seq=i), 0.0)
            queue.enqueue(Packet(flow_b, 1000, seq=100 + i), 0.0)
        order = [queue.dequeue(0.001).flow.src_port for _ in range(6)]
        # Deficit round-robin alternates between the two flows.
        assert order.count(100) == 3
        assert order.count(101) == 3
        assert order[:2] != order[2:4] or order[0] != order[1]

    def test_flow_queue_accessor(self):
        queue = FqCoDelQueue()
        flow_a, flow_b = self._flows(2)
        queue.enqueue(Packet(flow_a, 500), 0.0)
        sub = queue.flow_queue(flow_a)
        assert sub is not None
        assert sub.byte_length == 500
        assert queue.flow_queue(flow_b) is None

    def test_aggregate_lengths(self):
        queue = FqCoDelQueue()
        flow_a, flow_b = self._flows(2)
        queue.enqueue(Packet(flow_a, 500), 0.0)
        queue.enqueue(Packet(flow_b, 700), 0.0)
        assert queue.byte_length == 1200
        assert queue.packet_length == 2

    def test_empty_flow_removed(self):
        queue = FqCoDelQueue()
        (flow_a,) = self._flows(1)
        queue.enqueue(Packet(flow_a, 500), 0.0)
        queue.dequeue(0.001)
        queue.dequeue(0.001)  # triggers cleanup of the empty sub-queue
        assert queue.flow_count == 0

    def test_overflow_counts_drop(self):
        queue = FqCoDelQueue(capacity_bytes=1000)
        (flow_a,) = self._flows(1)
        queue.enqueue(Packet(flow_a, 800), 0.0)
        assert not queue.enqueue(Packet(flow_a, 800), 0.0)
        assert queue.stats.dropped == 1

    def test_front_wait_time_of_next_served(self):
        queue = FqCoDelQueue()
        (flow_a,) = self._flows(1)
        queue.enqueue(Packet(flow_a, 500), 1.0)
        assert queue.front_wait_time(3.0) == pytest.approx(2.0)

    def test_big_packet_waits_for_deficit(self):
        queue = FqCoDelQueue()
        flow_a, flow_b = self._flows(2)
        queue.enqueue(Packet(flow_a, QUANTUM + 400), 0.0)
        queue.enqueue(Packet(flow_b, 400), 0.0)
        first = queue.dequeue(0.001)
        # flow_a's packet exceeds its one-quantum deficit, so flow_b's
        # small packet is served first.
        assert first.flow == flow_b
