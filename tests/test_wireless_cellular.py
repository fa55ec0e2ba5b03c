"""Tests for the cellular downlink model."""


from repro.aqm.fq_codel import FqCoDelQueue
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue
from repro.traces.trace import BandwidthTrace
from repro.wireless.cellular import PROPAGATION_DELAY, TTI, CellularLink
from repro.wireless.channel import WirelessChannel


def make_link(sim, rate_bps=10e6, queue=None, **kwargs):
    trace = BandwidthTrace([rate_bps], interval=100.0)
    queue = queue if queue is not None else DropTailQueue()
    link = CellularLink(sim, WirelessChannel(trace), queue, **kwargs)
    return link, queue


class TestService:
    def test_delivers_all(self, sim, flow):
        link, _ = make_link(sim)
        got = []
        link.deliver_batch = got.extend
        for i in range(30):
            sim.schedule(0.0, lambda i=i: link.send(Packet(flow, 1200, seq=i)))
        sim.run(until=1.0)
        assert len(got) == 30

    def test_throughput_tracks_rate(self, sim, flow):
        link, _ = make_link(sim, rate_bps=4.8e6)  # 600 B/ms
        got = []
        link.deliver_batch = lambda packets: got.extend(
            [sim.now] * len(packets))
        for _ in range(500):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=0.5)
        # 0.5 s at 4.8 Mbps = 300 kB = 250 packets.
        assert 200 <= len(got) <= 255

    def test_tti_paced_departures(self, sim, flow):
        link, queue = make_link(sim, rate_bps=1200 * 8 / TTI)
        departures = []
        queue.on_departure.append(
            lambda burst, q: departures.extend([sim.now] * len(burst)))
        link.deliver_batch = lambda packets: None
        for _ in range(20):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=0.5)
        # Exactly one 1200 B packet per TTI.
        gaps = [b - a for a, b in zip(departures, departures[1:])]
        assert all(gap >= 0.99 * TTI for gap in gaps)

    def test_propagation_delay(self, sim, flow):
        link, _ = make_link(sim)
        got = []
        link.deliver_batch = lambda packets: got.extend(
            [sim.now] * len(packets))
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=1.0)
        assert got[0] >= PROPAGATION_DELAY

    def test_head_of_line_packet_larger_than_tti_budget(self, sim, flow):
        # 1 Mbps = 125 B/ms: a 1200 B packet needs ~10 TTIs of carryover.
        link, _ = make_link(sim, rate_bps=1e6)
        got = []
        link.deliver_batch = lambda packets: got.extend(
            [sim.now] * len(packets))
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=1.0)
        assert len(got) == 1
        assert got[0] >= 0.009


class TestFlowIsolation:
    def test_per_flow_queues_with_fq(self, sim):
        fq = FqCoDelQueue()
        link, _ = make_link(sim, rate_bps=2.4e6, queue=fq)
        rtc = FiveTuple("s", "c", 1, 2)
        bulk = FiveTuple("s", "c", 3, 4)
        arrivals = {"rtc": [], "bulk": []}

        def deliver(packets):
            for packet in packets:
                key = "rtc" if packet.flow == rtc else "bulk"
                arrivals[key].append(sim.now)

        link.deliver_batch = deliver
        # Bulk floods; RTC sends one packet per 50 ms.
        for i in range(200):
            sim.schedule(0.0, lambda: link.send(Packet(bulk, 1200)))
        for i in range(10):
            sim.schedule(i * 0.05, lambda: link.send(Packet(rtc, 1200)))
        sim.run(until=0.5)
        # DRR gives the sparse RTC flow priority over the backlog: every
        # RTC packet that arrived got through.
        assert len(arrivals["rtc"]) >= 9
