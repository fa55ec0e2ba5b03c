"""Tests for the ABC router (AP-side marking)."""

import pytest

from repro.cca.abc import ETA, AbcRouter
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


class TestMarking:
    def test_every_packet_marked(self, queue, flow):
        router = AbcRouter(Simulator(), queue, capacity_fn=lambda now: 10e6)
        for i in range(20):
            packet = Packet(flow, 1200, seq=i)
            router.mark(packet, i * 0.01)
            assert packet.headers["abc_mark"] in ("accelerate", "brake")

    def test_underloaded_link_mostly_accelerates(self, queue, flow):
        router = AbcRouter(Simulator(), queue, capacity_fn=lambda now: 50e6)
        marks = []
        # Incoming ~2.4 Mbps against a 50 Mbps link with empty queue.
        for i in range(100):
            packet = Packet(flow, 1200)
            router.mark(packet, i * 0.004)
            marks.append(packet.headers["abc_mark"])
        accel_ratio = marks.count("accelerate") / len(marks)
        assert accel_ratio > 0.9

    def test_congested_queue_brakes(self, queue, flow):
        router = AbcRouter(Simulator(), queue, capacity_fn=lambda now: 1e6)
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

    def test_marking_fraction_tracks_target(self, queue, flow):
        """Fluid-limit check: accel fraction ~ target/(2*incoming)."""
        router = AbcRouter(Simulator(), queue, capacity_fn=lambda now: 2.4e6)
        marks = []
        # Incoming 2.4 Mbps == capacity, empty queue: accel ~ ETA / 2.
        for i in range(400):
            packet = Packet(flow, 1200)
            router.mark(packet, i * 0.004)
            marks.append(packet.headers["abc_mark"])
        accel_ratio = marks.count("accelerate") / len(marks)
        assert accel_ratio == pytest.approx(ETA / 2, abs=0.1)


class TestAsAp:
    def test_marks_downlink_data_then_forwards(self, queue, flow):
        router = AbcRouter(Simulator(), queue, capacity_fn=lambda now: 10e6)
        down, up = [], []
        router.forward_downlink = down.append
        router.forward_uplink = up.append
        data = Packet(flow, 1200)
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        router.on_downlink(data)
        router.on_downlink(Packet(flow, 60, PacketKind.ACK))
        router.on_ack_batch([ack])
        assert "abc_mark" in data.headers
        assert "abc_mark" not in down[1].headers
        assert up == [ack] and router.packets_processed == 3
        assert router.on_wireless_delivery is None
