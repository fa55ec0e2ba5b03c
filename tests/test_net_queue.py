"""Tests for the drop-tail queue."""

import pytest

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=5000, name="test")


class TestEnqueueDequeue:
    def test_fifo_order(self, queue, flow):
        packets = [Packet(flow, 100, seq=i) for i in range(3)]
        for p in packets:
            assert queue.enqueue(p, now=0.0)
        out = [queue.dequeue(1.0) for _ in range(3)]
        assert [p.seq for p in out] == [0, 1, 2]

    def test_byte_and_packet_length(self, queue, flow):
        queue.enqueue(Packet(flow, 100), 0.0)
        queue.enqueue(Packet(flow, 200), 0.0)
        assert queue.byte_length == 300
        assert queue.packet_length == 2

    def test_dequeue_empty_returns_none(self, queue):
        assert queue.dequeue(0.0) is None

    def test_timestamps_stamped(self, queue, flow):
        packet = Packet(flow, 100)
        queue.enqueue(packet, 1.0)
        assert packet.enqueued_at == 1.0
        queue.dequeue(2.5)
        assert packet.dequeued_at == 2.5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)


class TestOverflow:
    def test_tail_drop_on_overflow(self, queue, flow):
        assert queue.enqueue(Packet(flow, 4000), 0.0)
        assert not queue.enqueue(Packet(flow, 2000), 0.0)
        assert queue.stats.dropped == 1
        assert queue.stats.drop_reasons == {"tail-overflow": 1}

    def test_exact_fit_accepted(self, queue, flow):
        assert queue.enqueue(Packet(flow, 5000), 0.0)

    def test_drop_callback_fires(self, queue, flow):
        drops = []
        queue.on_drop.append(lambda p, reason: drops.append(reason))
        queue.enqueue(Packet(flow, 5000), 0.0)
        queue.enqueue(Packet(flow, 100), 0.0)
        assert drops == ["tail-overflow"]


class TestDropAll:
    def test_drop_all_counts_and_fires_callbacks(self, queue, flow):
        reasons = []
        queue.on_drop.append(lambda p, reason: reasons.append(reason))
        queue.enqueue(Packet(flow, 1000), 0.0)
        queue.enqueue(Packet(flow, 1000), 0.0)
        assert queue.drop_all("roam-flush") == 2
        assert reasons == ["roam-flush", "roam-flush"]
        assert queue.is_empty
        assert queue.byte_length == 0

    def test_drop_all_reentrant_enqueue_survives(self, queue, flow):
        # Regression: an on_drop callback that re-enqueues (a retransmit
        # shim) must see a consistent empty queue. The old implementation
        # popped one packet at a time, so the replacement was swept into
        # the same flush.
        replacements = []

        def retransmit(packet, reason):
            if packet.size == 1000:  # replacements (500 B) don't re-arm
                replacement = Packet(flow, 500)
                replacements.append(replacement)
                queue.enqueue(replacement, 1.0)

        queue.on_drop.append(retransmit)
        queue.enqueue(Packet(flow, 1000), 0.0)
        queue.enqueue(Packet(flow, 1000), 0.0)
        assert queue.drop_all("roam-flush") == 2
        assert queue.packet_length == 2
        assert queue.byte_length == 1000
        assert [queue.dequeue(2.0), queue.dequeue(2.0)] == replacements


class TestFrontWaitTime:
    def test_empty_queue_zero_wait(self, queue):
        assert queue.front_wait_time(10.0) == 0.0

    def test_wait_grows_with_time(self, queue, flow):
        queue.enqueue(Packet(flow, 100), 1.0)
        assert queue.front_wait_time(1.5) == pytest.approx(0.5)
        assert queue.front_wait_time(3.0) == pytest.approx(2.0)

    def test_wait_resets_after_dequeue(self, queue, flow):
        queue.enqueue(Packet(flow, 100), 1.0)
        queue.enqueue(Packet(flow, 100), 2.0)
        queue.dequeue(5.0)
        assert queue.front_wait_time(5.0) == pytest.approx(3.0)


class TestCallbacks:
    def test_arrival_callback(self, queue, flow):
        seen = []
        queue.on_arrival.append(lambda p, q: seen.append(p.seq))
        queue.enqueue(Packet(flow, 100, seq=7), 0.0)
        assert seen == [7]

    def test_departure_callback(self, queue, flow):
        seen = []
        queue.on_departure.append(
            lambda burst, q: seen.extend(p.seq for p in burst))
        queue.enqueue(Packet(flow, 100, seq=7), 0.0)
        queue.dequeue(1.0)
        assert seen == [7]

    def test_stats_accumulate(self, queue, flow):
        queue.enqueue(Packet(flow, 100), 0.0)
        queue.enqueue(Packet(flow, 200), 0.0)
        queue.dequeue(1.0)
        assert queue.stats.enqueued == 2
        assert queue.stats.dequeued == 1
        assert queue.stats.bytes_enqueued == 300
        assert queue.stats.bytes_dequeued == 100

    def test_clear_empties_without_drops(self, queue, flow):
        queue.enqueue(Packet(flow, 100), 0.0)
        queue.clear()
        assert queue.is_empty
        assert queue.stats.dropped == 0
