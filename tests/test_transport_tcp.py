"""Tests for the TCP-like transport."""

import pytest

from repro.cca.cubic import CubicCca
from repro.net.packet import Packet
from repro.transport.stream import MAX_BUFFER_BYTES
from repro.transport.tcp import TcpReceiver, TcpSender


@pytest.fixture
def pair(sim, flow):
    sender = TcpSender(sim, flow, CubicCca())
    receiver = TcpReceiver(sim, flow)
    return sender, receiver


def wire_direct(sim, sender, receiver, delay=0.010, loss_seqs=()):
    """Connect sender and receiver through pure delay lines.

    Each seq in ``loss_seqs`` is dropped exactly once (its first
    transmission); retransmissions get through.
    """
    already_dropped = set()

    def down(packet):
        if packet.seq in loss_seqs and packet.seq not in already_dropped:
            already_dropped.add(packet.seq)
            return
        sim.schedule(delay, lambda p=packet: receiver.on_data(p))

    def up(packet):
        sim.schedule(delay, lambda p=packet: sender.on_ack(p))

    sender.transmit = down
    receiver.transmit = up


class TestBasicTransfer:
    def test_bytes_delivered_in_order(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        delivered = []
        receiver.on_deliver = lambda seq, end, meta, now: delivered.append(
            (seq, end))
        sender.write(5000)
        sim.run(until=1.0)
        assert delivered[0][0] == 0
        assert delivered[-1][1] == 5000
        starts = [d[0] for d in delivered]
        assert starts == sorted(starts)

    def test_metadata_carried(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        metas = []
        receiver.on_deliver = lambda seq, end, meta, now: metas.append(meta)
        sender.write(1000, meta={"frame_id": 7})
        sim.run(until=1.0)
        assert metas[0]["frame_id"] == 7
        assert metas[-1].get("last_of_write") is True

    def test_rtt_estimated(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver, delay=0.015)
        sender.write(3000)
        sim.run(until=1.0)
        assert sender.srtt == pytest.approx(0.030, rel=0.2)

    def test_write_buffer_limit(self, sim, flow):
        sender = TcpSender(sim, flow, CubicCca())
        sender.transmit = lambda p: None
        sender.cca.cwnd = 0  # window closed: writes stay buffered
        assert sender.write(MAX_BUFFER_BYTES - 1_000)
        assert not sender.write(9_000)

    def test_invalid_write(self, sim, pair):
        sender, _ = pair
        with pytest.raises(ValueError):
            sender.write(0)

    def test_cwnd_limits_inflight(self, sim, pair):
        sender, receiver = pair
        sent = []
        sender.transmit = lambda p: sent.append(p)  # never acked
        sender.write(1_000_000)
        sim.run(until=0.05)
        assert sender.inflight_bytes <= sender.cca.cwnd


class TestLossRecovery:
    def test_fast_retransmit_on_dup_acks(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver, loss_seqs={0})
        delivered_ends = []
        receiver.on_deliver = lambda seq, end, meta, now: delivered_ends.append(end)
        sender.write(20_000)
        sim.run(until=2.0)
        assert sender.retransmissions >= 1
        assert delivered_ends[-1] == 20_000  # everything recovered

    def test_rto_recovers_tail_loss(self, sim, pair):
        sender, receiver = pair
        # Lose the very last segment: no dupacks possible -> RTO.
        sender_mss = sender.mss
        loss_seq = (3000 // sender_mss) * sender_mss
        wire_direct(sim, sender, receiver, loss_seqs={loss_seq})
        delivered_ends = []
        receiver.on_deliver = lambda seq, end, meta, now: delivered_ends.append(end)
        sender.write(3000)
        sim.run(until=5.0)
        assert sender.rto_count >= 1
        assert delivered_ends and delivered_ends[-1] == 3000

    def test_loss_shrinks_cwnd(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        sender.write(50_000)
        sim.run(until=1.0)
        cwnd_before = sender.cca.cwnd
        wire_direct(sim, sender, receiver, loss_seqs={sender._next_seq})
        sender.write(50_000)
        sim.run(until=3.0)
        assert sender.cca.cwnd < cwnd_before


class TestReceiver:
    def test_ack_every_packet(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        sender.write(10_000)
        sim.run(until=1.0)
        assert receiver.acks_sent == receiver.packets_received

    def test_cumulative_ack_with_gap(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        acks = []
        receiver.transmit = acks.append
        second = Packet(flow, 1000, seq=1000)
        second.headers["end_seq"] = 2000
        receiver.on_data(second)
        assert acks[-1].ack == 0  # gap at 0
        first = Packet(flow, 1000, seq=0)
        first.headers["end_seq"] = 1000
        receiver.on_data(first)
        assert acks[-1].ack == 2000

    def test_abc_mark_echoed(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        acks = []
        receiver.transmit = acks.append
        data = Packet(flow, 1000, seq=0)
        data.headers["end_seq"] = 1000
        data.headers["abc_mark"] = "accelerate"
        receiver.on_data(data)
        assert acks[-1].headers["abc_mark"] == "accelerate"

    def test_duplicate_data_ignored(self, sim, flow):
        receiver = TcpReceiver(sim, flow)
        receiver.transmit = lambda p: None
        delivered = []
        receiver.on_deliver = lambda seq, end, meta, now: delivered.append(seq)
        packet = Packet(flow, 1000, seq=0)
        packet.headers["end_seq"] = 1000
        receiver.on_data(packet)
        receiver.on_data(packet)
        assert delivered == [0]


class TestUnlimitedMode:
    def test_bulk_sender_saturates_cwnd(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        sender.unlimited = True
        sim.schedule(0.0, sender._try_send)
        # Pure delay lines have no bottleneck, so slow start grows the
        # window exponentially — bound the run by event count, not time.
        sim.run(until=2.0, max_events=50_000)
        assert receiver.packets_received > 100
