"""Tests: the in-band updater reports AP-queue drops as losses."""

import pytest

from repro.core.fortune_teller import FortuneTeller
from repro.core.inband import InBandFeedbackUpdater
from repro.net.packet import FiveTuple, Packet
from repro.net.queue import DropTailQueue


@pytest.fixture
def small_queue():
    return DropTailQueue(capacity_bytes=2500)


@pytest.fixture
def updater(sim, small_queue, flow):
    teller = FortuneTeller(sim, small_queue)
    return InBandFeedbackUpdater(sim, teller, flow,
                                 feedback_interval=0.040)


class TestDropReporting:
    def test_dropped_packet_removed_from_feedback(self, sim, small_queue,
                                                  updater, flow):
        sent = []
        updater.send_uplink = sent.append
        packets = [Packet(flow, 1200, headers={"twcc_seq": i})
                   for i in range(3)]
        for packet in packets:
            updater.on_data_packet(packet)
            small_queue.enqueue(packet, sim.now)  # third one overflows
        sim.run(until=0.050)
        feedback = sent[0].headers["twcc_feedback"]
        assert 0 in feedback.arrivals
        assert 1 in feedback.arrivals
        assert 2 not in feedback.arrivals  # dropped => reported missing

    def test_sender_marks_dropped_seq_lost(self, sim, small_queue, updater,
                                           flow):
        """End to end: the GCC loss controller sees the AP drop."""
        from repro.cca.gcc import GccController
        from repro.transport.rtp import RtpSender

        sender = RtpSender(sim, flow, GccController())
        sender.transmit = lambda p: None
        updater.send_uplink = sender.on_feedback

        losses = []
        original = sender.cca.on_feedback

        def spy(now, reports):
            losses.extend(r.seq for r in reports if r.recv_time is None)
            original(now, reports)

        sender.cca.on_feedback = spy
        for _ in range(4):
            packet = sender.send_packet()
            updater.on_data_packet(packet)
            small_queue.enqueue(packet, sim.now)
        # Queue holds 2 packets (2500 B); packets 2 and 3 overflowed.
        # A loss is only *confirmed* once a later packet is reported
        # (the TWCC frontier must pass the hole), so drain and send one
        # more packet that gets through.
        small_queue.dequeue(0.001)
        small_queue.dequeue(0.001)
        late = sender.send_packet()
        updater.on_data_packet(late)
        small_queue.enqueue(late, sim.now)
        sim.run(until=0.050)
        assert 2 in losses and 3 in losses

    def test_other_flow_drops_ignored(self, sim, small_queue, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 0}))
        other = FiveTuple("x", "y", 9, 9)
        packet = Packet(other, 1200, headers={"twcc_seq": 0})
        small_queue.enqueue(Packet(other, 2400), 0.0)
        small_queue.enqueue(packet, 0.0)  # overflow drop of other flow
        sim.run(until=0.050)
        # Same twcc_seq, different flow: our fortune is still reported.
        assert 0 in sent[0].headers["twcc_feedback"].arrivals


class TestEachSeqReachesCcaOnce:
    """Paper-level invariant (§5.3): the sender's CCA sees every TWCC
    sequence at most once, exactly once after the report frontier has
    passed it, and an AP queue drop as a loss."""

    def test_overflowing_ap_queue(self, sim, small_queue, updater, flow):
        from repro.cca.gcc import GccController
        from repro.sim.engine import Timer
        from repro.transport.rtp import RtpSender

        sender = RtpSender(sim, flow, GccController(), history_window=0.5)

        def downlink(packet):
            updater.on_data_packet(packet)
            small_queue.enqueue(packet, sim.now)

        sender.transmit = downlink
        updater.send_uplink = lambda packet: sim.schedule(
            0.020, lambda: sender.on_feedback(packet))
        dropped = set()
        small_queue.on_drop.append(
            lambda packet, reason: dropped.add(packet.headers["twcc_seq"]))
        reports = []
        original = sender.cca.on_feedback

        def spy(now, batch):
            reports.extend(batch)
            original(now, batch)

        sender.cca.on_feedback = spy
        # 2 ms between packets against a 3 ms drain: the two-packet
        # queue overflows every few packets for the whole run.
        Timer(sim, 0.002, sender.send_packet)
        Timer(sim, 0.003, lambda: small_queue.dequeue(sim.now))
        sim.run(until=2.0)

        seqs = [r.seq for r in reports]
        frontier = sender._next_unreported
        assert len(seqs) == len(set(seqs))
        assert sender._oldest_seq > 0 and frontier > sender._oldest_seq
        assert {s for s in sender._history if s < frontier} <= set(seqs)
        assert all(s < frontier for s in seqs)
        assert len(dropped) > 100
        for report in reports:
            assert (report.recv_time is None) == (report.seq in dropped)
