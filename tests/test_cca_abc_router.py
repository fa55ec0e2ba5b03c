"""Tests for the ABC router (AP-side marking)."""

import pytest

from repro.cca.abc import ETA, AbcRouter
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


class TestMarking:
    def test_every_packet_marked(self, queue, flow):
        router = AbcRouter(queue, capacity_fn=lambda now: 10e6)
        for i in range(20):
            packet = Packet(flow, 1200, seq=i)
            router.mark(packet, i * 0.01)
            assert packet.headers["abc_mark"] in ("accelerate", "brake")

    def test_underloaded_link_mostly_accelerates(self, queue, flow):
        router = AbcRouter(queue, capacity_fn=lambda now: 50e6)
        marks = []
        # Incoming ~2.4 Mbps against a 50 Mbps link with empty queue.
        for i in range(100):
            packet = Packet(flow, 1200)
            router.mark(packet, i * 0.004)
            marks.append(packet.headers["abc_mark"])
        accel_ratio = marks.count("accelerate") / len(marks)
        assert accel_ratio > 0.9

    def test_congested_queue_brakes(self, queue, flow):
        router = AbcRouter(queue, capacity_fn=lambda now: 1e6)
        # Build a deep backlog: queueing delay far above target.
        for _ in range(100):
            queue.enqueue(Packet(flow, 1200), 0.0)
        marks = []
        for i in range(100):
            packet = Packet(flow, 1200)
            router.mark(packet, 0.1 + i * 0.004)
            marks.append(packet.headers["abc_mark"])
        brake_ratio = marks.count("brake") / len(marks)
        assert brake_ratio > 0.9

    def test_measured_mu_fallback(self, queue, flow):
        router = AbcRouter(queue)  # no capacity_fn
        # Generate departures so the measured rate exists.
        t = 0.0
        for _ in range(20):
            queue.enqueue(Packet(flow, 1200), t)
            queue.dequeue(t + 0.001)
            t += 0.002
        packet = Packet(flow, 1200)
        router.mark(packet, t)
        assert packet.headers["abc_mark"] in ("accelerate", "brake")

    def test_queueing_delay_estimate(self, queue, flow):
        router = AbcRouter(queue)
        t = 0.0
        for _ in range(50):
            queue.enqueue(Packet(flow, 1200), t)
            queue.dequeue(t + 0.0005)
            t += 0.001  # ~9.6 Mbps dequeue rate
        for _ in range(10):
            queue.enqueue(Packet(flow, 1200), t)
        d_q = router.queueing_delay(t)
        assert d_q == pytest.approx(10 * 1200 * 8 / 9.6e6, rel=0.5)

    def test_marking_fraction_tracks_target(self, queue, flow):
        """Fluid-limit check: accel fraction ~ target/(2*incoming)."""
        router = AbcRouter(queue, capacity_fn=lambda now: 2.4e6)
        marks = []
        # Incoming 2.4 Mbps == capacity, empty queue: accel ~ ETA / 2.
        for i in range(400):
            packet = Packet(flow, 1200)
            router.mark(packet, i * 0.004)
            marks.append(packet.headers["abc_mark"])
        accel_ratio = marks.count("accelerate") / len(marks)
        assert accel_ratio == pytest.approx(ETA / 2, abs=0.1)
