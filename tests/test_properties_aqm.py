"""Property-based tests for the AQM disciplines and wireless links."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.codel import CoDelQueue
from repro.aqm.fq_codel import FqCoDelQueue
from repro.net.packet import FiveTuple, Packet
from repro.sim.engine import Simulator
from repro.traces.trace import BandwidthTrace
from repro.wireless.channel import WirelessChannel
from repro.wireless.link import WirelessLink

flows = st.builds(FiveTuple,
                  src=st.just("s"), dst=st.just("c"),
                  src_port=st.integers(1, 5), dst_port=st.integers(1, 5))
packet_sizes = st.integers(min_value=60, max_value=1500)


class TestCoDelProperties:
    @given(st.lists(st.tuples(packet_sizes,
                              st.floats(min_value=0, max_value=0.01)),
                    min_size=1, max_size=100))
    def test_conservation(self, arrivals):
        """enqueued == dequeued + dropped + still-queued, in packets and
        bytes, for any arrival pattern and any drain schedule."""
        queue = CoDelQueue(capacity_bytes=20_000)
        flow = FiveTuple("a", "b", 1, 2)
        t = 0.0
        for size, gap in arrivals:
            queue.enqueue(Packet(flow, size), t)
            t += gap
            if int(t * 1000) % 2 == 0:
                queue.dequeue(t)
        drained = 0
        while queue.dequeue(t + 10.0) is not None:
            drained += 1
        stats = queue.stats
        assert stats.enqueued == stats.dequeued + stats.dropped
        assert (stats.bytes_enqueued
                == stats.bytes_dequeued + stats.bytes_dropped)

    @given(st.lists(packet_sizes, min_size=1, max_size=60))
    def test_never_negative_backlog(self, sizes):
        queue = CoDelQueue()
        flow = FiveTuple("a", "b", 1, 2)
        for i, size in enumerate(sizes):
            queue.enqueue(Packet(flow, size), i * 0.001)
            if i % 3 == 0:
                queue.dequeue(i * 0.001 + 0.0005)
        assert queue.byte_length >= 0
        assert queue.packet_length >= 0


class TestFqCoDelProperties:
    @given(st.lists(st.tuples(flows, packet_sizes),
                    min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_all_packets_accounted(self, arrivals):
        queue = FqCoDelQueue(capacity_bytes=500_000)
        for i, (flow, size) in enumerate(arrivals):
            queue.enqueue(Packet(flow, size), i * 0.001)
        drained = 0
        t = 1.0
        while True:
            packet = queue.dequeue(t)
            if packet is None:
                break
            drained += 1
            t += 0.001
        assert drained + queue.stats.dropped == len(arrivals)
        assert queue.packet_length == 0

    @given(st.lists(st.tuples(flows, packet_sizes),
                    min_size=2, max_size=80))
    @settings(max_examples=50)
    def test_per_flow_fifo_order(self, arrivals):
        """Packets of the SAME flow never reorder, whatever DRR does."""
        queue = FqCoDelQueue(capacity_bytes=500_000)
        sent: dict[FiveTuple, list[int]] = {}
        for i, (flow, size) in enumerate(arrivals):
            packet = Packet(flow, size, seq=i)
            if queue.enqueue(packet, 0.0):
                sent.setdefault(flow, []).append(i)
        got: dict[FiveTuple, list[int]] = {}
        t = 0.001
        while True:
            packet = queue.dequeue(t)
            if packet is None:
                break
            got.setdefault(packet.flow, []).append(packet.seq)
            t += 0.001
        for flow, seqs in got.items():
            assert seqs == sorted(seqs)


class TestWirelessLinkProperties:
    @given(st.lists(packet_sizes, min_size=1, max_size=50),
           st.floats(min_value=1e6, max_value=50e6))
    @settings(max_examples=30, deadline=None)
    def test_every_accepted_packet_delivered(self, sizes, rate):
        sim = Simulator()
        trace = BandwidthTrace([rate], interval=1000.0)
        from repro.net.queue import DropTailQueue
        queue = DropTailQueue(capacity_bytes=10**9)
        link = WirelessLink(sim, WirelessChannel(trace), queue)
        delivered = []
        link.deliver_batch = delivered.extend
        flow = FiveTuple("a", "b", 1, 2)
        for size in sizes:
            sim.schedule(0.0, lambda s=size: link.send(Packet(flow, s)))
        sim.run(until=60.0)
        assert len(delivered) == len(sizes)
        assert link.packets_sent == len(sizes)
