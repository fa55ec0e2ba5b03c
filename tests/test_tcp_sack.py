"""Tests for SACK-based loss recovery and cwnd validation."""

import pytest

from repro.cca.cubic import CubicCca
from repro.net.packet import Packet
from repro.transport.tcp import TcpReceiver, TcpSender


@pytest.fixture
def pair(sim, flow):
    sender = TcpSender(sim, flow, CubicCca())
    receiver = TcpReceiver(sim, flow)
    return sender, receiver


def wire(sim, sender, receiver, delay=0.010, loss_seqs=()):
    already = set()

    def down(packet):
        if packet.seq in loss_seqs and packet.seq not in already:
            already.add(packet.seq)
            return
        sim.schedule(delay, lambda p=packet: receiver.on_data(p))

    def up(packet):
        sim.schedule(delay, lambda p=packet: sender.on_ack(p))

    sender.transmit = down
    receiver.transmit = up


class TestSackRanges:
    def test_no_ranges_when_in_order(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        acks = []
        receiver.transmit = acks.append
        packet = Packet(flow, 1000, seq=0)
        packet.headers["end_seq"] = 1000
        receiver.on_data(packet)
        assert "sack_ranges" not in acks[-1].headers

    def test_gap_produces_range(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        acks = []
        receiver.transmit = acks.append
        later = Packet(flow, 1000, seq=2000)
        later.headers["end_seq"] = 3000
        receiver.on_data(later)
        assert acks[-1].headers["sack_ranges"] == [(2000, 3000)]

    def test_adjacent_ranges_merged(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        acks = []
        receiver.transmit = acks.append
        for seq in (2000, 3000):
            packet = Packet(flow, 1000, seq=seq)
            packet.headers["end_seq"] = seq + 1000
            receiver.on_data(packet)
        assert acks[-1].headers["sack_ranges"] == [(2000, 4000)]

    def test_disjoint_ranges(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        acks = []
        receiver.transmit = acks.append
        for seq in (2000, 5000):
            packet = Packet(flow, 1000, seq=seq)
            packet.headers["end_seq"] = seq + 1000
            receiver.on_data(packet)
        assert acks[-1].headers["sack_ranges"] == [(2000, 3000),
                                                   (5000, 6000)]

    def test_sack_disabled(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        receiver.sack_enabled = False
        acks = []
        receiver.transmit = acks.append
        later = Packet(flow, 1000, seq=2000)
        later.headers["end_seq"] = 3000
        receiver.on_data(later)
        assert "sack_ranges" not in acks[-1].headers


class TestSackRecovery:
    def test_multi_hole_burst_recovers_without_rto(self, sim, pair):
        """The motivating case: many holes in one window recover via
        SACK retransmissions instead of one backed-off RTO per hole."""
        sender, receiver = pair
        mss = sender.mss
        losses = {mss * i for i in (2, 5, 8, 11, 14)}
        wire(sim, sender, receiver, loss_seqs=losses)
        delivered_ends = []
        receiver.on_deliver = lambda s, e, m, now: delivered_ends.append(e)
        sender.write(20 * mss)
        sim.run(until=3.0)
        assert delivered_ends and delivered_ends[-1] == 20 * mss
        assert sender.rto_count == 0
        assert sender.retransmissions >= len(losses)

    def test_sacked_segments_leave_inflight(self, sim, pair):
        sender, receiver = pair
        mss = sender.mss
        wire(sim, sender, receiver, loss_seqs={0})
        sender.write(10 * mss)
        sim.run(until=0.05)
        # Everything except the lost head has been sacked away.
        assert set(sender._inflight) <= {0}

    def test_single_loss_event_per_window(self, sim, pair):
        """Multiple holes in one flight count as ONE congestion event."""
        sender, receiver = pair
        mss = sender.mss
        losses = {mss * i for i in (1, 3, 5)}
        wire(sim, sender, receiver, loss_seqs=losses)
        loss_events = []
        original = sender.cca.on_loss
        sender.cca.on_loss = lambda now: (loss_events.append(now),
                                          original(now))
        sender.write(10 * mss)
        sim.run(until=3.0)
        assert len(loss_events) == 1

    def test_bulk_flow_saturates_after_overshoot(self, sim, pair):
        """Slow-start overshoot loses a burst; SACK recovery must keep
        the connection moving at line rate afterwards."""
        from repro.net.link import WiredLink
        sender, receiver = pair
        link = WiredLink(sim, 20e6, delay=0.01)
        link.queue.capacity_bytes = 60_000
        link.deliver = receiver.on_data
        sender.transmit = link.send
        receiver.transmit = (
            lambda p: sim.schedule(0.01, lambda pp=p: sender.on_ack(pp)))
        sender.unlimited = True
        sim.schedule(0.0, sender._try_send)
        sim.run(until=10.0)
        goodput = receiver.packets_received * sender.mss * 8 / 10.0
        assert goodput > 0.7 * 20e6
        assert sender.rto_count <= 2


class TestCwndValidation:
    def test_app_limited_window_decays(self, sim, flow):
        sender = TcpSender(sim, flow, CubicCca())
        sender.transmit = lambda p: None
        sender.cca.cwnd = 500 * sender.mss  # huge unused window
        # Simulate an ACK arriving with empty buffer and no inflight.
        sender._highest_acked = -1
        sender.on_ack(Packet(flow.reversed(), 60, ack=0))
        assert sender.cca.cwnd < 500 * sender.mss

    def test_bulk_flow_not_decayed(self, sim, flow):
        sender = TcpSender(sim, flow, CubicCca())
        sender.transmit = lambda p: None
        sender.unlimited = True
        sender.cca.cwnd = 500 * sender.mss
        sender._validate_cwnd()
        assert sender.cca.cwnd == 500 * sender.mss
