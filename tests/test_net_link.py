"""Tests for the wired link."""

import pytest

from repro.net.link import WiredLink
from repro.net.packet import Packet


class TestDelayLine:
    def test_infinite_rate_is_pure_delay(self, sim, flow):
        link = WiredLink(sim, None, delay=0.010)
        arrivals = []
        link.deliver = lambda p: arrivals.append(sim.now)
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run()
        assert arrivals == [pytest.approx(0.010)]

    def test_infinite_rate_no_queueing(self, sim, flow):
        link = WiredLink(sim, None, delay=0.010)
        arrivals = []
        link.deliver = lambda p: arrivals.append(sim.now)
        for _ in range(5):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run()
        assert all(t == pytest.approx(0.010) for t in arrivals)


class TestSerialization:
    def test_single_packet_latency(self, sim, flow):
        # 1200 B at 1.2 Mbps = 8 ms serialization + 10 ms propagation.
        link = WiredLink(sim, 1.2e6, delay=0.010)
        arrivals = []
        link.deliver = lambda p: arrivals.append(sim.now)
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run()
        assert arrivals == [pytest.approx(0.018)]

    def test_back_to_back_packets_serialize(self, sim, flow):
        link = WiredLink(sim, 1.2e6, delay=0.0)
        arrivals = []
        link.deliver = lambda p: arrivals.append(sim.now)
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run()
        assert arrivals == [pytest.approx(0.008), pytest.approx(0.016)]

    def test_throughput_matches_rate(self, sim, flow):
        link = WiredLink(sim, 8e6, delay=0.0)  # 1 MB/s
        delivered = []
        link.deliver = lambda p: delivered.append(p)
        for _ in range(100):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1000)))
        sim.run(until=0.0505)
        # ~50 ms at 1 MB/s = 50 kB = 50 packets (one event may land just
        # past the boundary due to float accumulation).
        assert len(delivered) == 50

    def test_received_at_stamped(self, sim, flow):
        link = WiredLink(sim, None, delay=0.005)
        got = []
        link.deliver = got.append
        sim.schedule(0.0, lambda: link.send(Packet(flow, 100)))
        sim.run()
        assert got[0].received_at == pytest.approx(0.005)


class TestValidation:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            WiredLink(sim, 1e6, delay=-1.0)

    def test_zero_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            WiredLink(sim, 0.0, delay=0.0)

    def test_queue_overflow_drops(self, sim, flow):
        link = WiredLink(sim, 1e3, delay=0.0)  # very slow
        queue = link.queue
        queue.capacity_bytes = 2000
        link.deliver = lambda p: None
        for _ in range(5):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1000)))
        sim.run(until=0.01)
        assert queue.stats.dropped >= 2
