"""Tests for the RTP/TWCC transport."""

import pytest

from repro.cca.gcc import GccController
from repro.net.packet import PacketKind
from repro.transport.rtp import HISTORY_WINDOW, RtpReceiver, RtpSender


class RateSamples(list):
    """A rate recorder that keeps every ``(time, rate)`` it is handed."""

    def record(self, time, rate):
        self.append((time, rate))


@pytest.fixture
def pair(sim, flow):
    sender = RtpSender(sim, flow, GccController(initial_bps=1e6))
    sender.rate_recorder = RateSamples()
    receiver = RtpReceiver(sim, flow)
    return sender, receiver


def wire_direct(sim, sender, receiver, delay=0.010, loss_seqs=()):
    def down(packet):
        if packet.headers.get("twcc_seq") in loss_seqs:
            return
        sim.schedule(delay, lambda p=packet: receiver.on_data(p))

    def up(packet):
        sim.schedule(delay, lambda p=packet: sender.on_feedback(p))

    sender.transmit = down
    receiver.transmit = up


class TestTwccSequencing:
    def test_sequence_increments(self, sim, pair):
        sender, _ = pair
        sender.transmit = lambda p: None
        first = sender.send_packet()
        second = sender.send_packet()
        assert second.headers["twcc_seq"] == first.headers["twcc_seq"] + 1

    def test_feedback_carries_arrivals(self, sim, pair):
        sender, receiver = pair
        feedback_packets = []
        receiver.transmit = feedback_packets.append
        sender.transmit = lambda p: receiver.on_data(p)
        sender.send_packet()
        sender.send_packet()
        sim.run(until=0.050)
        assert len(feedback_packets) == 1
        feedback = feedback_packets[0].headers["twcc_feedback"]
        assert set(feedback.arrivals) == {0, 1}
        assert feedback_packets[0].kind is PacketKind.RTCP_TWCC


class TestFeedbackProcessing:
    def test_cca_receives_reports(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        received = []
        original = sender.cca.on_feedback

        def spy(now, reports):
            received.extend(r for r in reports if r.recv_time is not None)
            original(now, reports)

        sender.cca.on_feedback = spy
        for i in range(10):
            sim.schedule(i * 0.005, sender.send_packet)
        sim.run(until=0.2)
        assert sender.feedback_received >= 1
        assert len(received) == 10

    def test_lost_packets_reported_as_lost(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver, loss_seqs={2})
        losses = []
        original = sender.cca.on_feedback

        def spy(now, reports):
            losses.extend(r for r in reports if r.recv_time is None)
            original(now, reports)

        sender.cca.on_feedback = spy
        for i in range(6):
            sim.schedule(i * 0.005, sender.send_packet)
        sim.run(until=0.3)
        assert any(r.seq == 2 for r in losses)

    def test_packets_not_double_reported(self, sim, pair):
        sender, receiver = pair
        wire_direct(sim, sender, receiver)
        reported = []
        original = sender.cca.on_feedback

        def spy(now, reports):
            reported.extend(r.seq for r in reports)
            original(now, reports)

        sender.cca.on_feedback = spy
        for i in range(20):
            sim.schedule(i * 0.01, sender.send_packet)
        sim.run(until=0.5)
        assert len(reported) == len(set(reported))

    def test_feedback_without_payload_ignored(self, sim, pair, flow):
        from repro.net.packet import Packet
        sender, _ = pair
        before = sender.feedback_received
        sender.on_feedback(Packet(flow.reversed(), 120, PacketKind.RTCP_TWCC))
        assert sender.feedback_received == before


class TestReceiverBehaviour:
    def test_no_feedback_when_no_data(self, sim, pair):
        _, receiver = pair
        sent = []
        receiver.transmit = sent.append
        sim.run(until=0.5)
        assert sent == []

    def test_media_callback_invoked(self, sim, pair):
        sender, receiver = pair
        got = []
        receiver.on_media = got.append
        receiver.transmit = lambda p: None
        sender.transmit = lambda p: receiver.on_data(p)
        sender.send_packet(headers={"frame_id": 3})
        assert got[0].headers["frame_id"] == 3

    def test_stop_halts_feedback(self, sim, pair):
        sender, receiver = pair
        sent = []
        receiver.transmit = sent.append
        sender.transmit = lambda p: receiver.on_data(p)
        sender.send_packet()
        receiver.stop()
        sim.run(until=0.5)
        assert sent == []


class TestHistoryEviction:
    def test_history_trimmed_by_window(self, sim, flow):
        sender = RtpSender(sim, flow, GccController())
        sender.transmit = lambda p: None
        sender.send_packet()
        sim.run(until=HISTORY_WINDOW + 0.5)
        sender.send_packet()  # triggers the trim
        assert 0 not in sender._history
        assert 1 in sender._history


class TestReportFrontier:
    """Cases the report frontier makes explicit."""

    @staticmethod
    def _feedback(flow, arrivals):
        from repro.net.packet import Packet
        from repro.transport.rtp import TwccFeedback
        packet = Packet(flow.reversed(), 120, PacketKind.RTCP_TWCC)
        packet.headers["twcc_feedback"] = TwccFeedback(0, dict(arrivals))
        return packet

    @pytest.fixture
    def spied(self, sim, pair):
        sender, _ = pair
        sender.transmit = lambda p: None
        batches = []
        original = sender.cca.on_feedback

        def spy(now, reports):
            batches.append([(r.seq, r.recv_time) for r in reports])
            original(now, reports)

        sender.cca.on_feedback = spy
        for i in range(6):
            sim.schedule(i * 0.005, sender.send_packet)
        sim.run(until=0.1)
        return sender, batches

    def test_stale_feedback_after_newer_is_noop(self, spied, flow):
        sender, batches = spied
        sender.on_feedback(self._feedback(flow, {3: 0.05, 4: 0.06}))
        samples = len(sender.rate_recorder)
        # Older feedback overtaken in flight: max(arrivals) < frontier.
        sender.on_feedback(self._feedback(flow, {0: 0.02, 1: 0.03}))
        assert len(batches) == 1
        assert len(sender.rate_recorder) == samples
        assert sender.feedback_received == 2

    def test_straggler_for_seq_declared_lost_ignored(self, spied, flow):
        sender, batches = spied
        sender.on_feedback(self._feedback(flow, {0: 0.02, 2: 0.04}))
        assert batches == [[(0, 0.02), (1, None), (2, 0.04)]]
        # Seq 1 turns up after all, riding along with seq 3.
        sender.on_feedback(self._feedback(flow, {1: 0.07, 3: 0.08}))
        assert batches[1:] == [[(3, 0.08)]]

    def test_never_sent_seq_neither_loops_nor_hides_later_packets(
            self, sim, spied, flow):
        sender, batches = spied
        assert sender._twcc_seq == 6
        sender.on_feedback(self._feedback(flow, {0: 0.02, 10**12: 0.05}))
        # Everything sent so far is below the named seq => lost.
        assert batches == [[(0, 0.02)] + [(s, None) for s in range(1, 6)]]
        later = sender.send_packet().headers["twcc_seq"]
        sender.on_feedback(self._feedback(flow, {later: 0.2}))
        assert batches[1:] == [[(later, 0.2)]]


class TestHeadersAliasing:
    """``Packet.headers`` is middlebox-writable; the sender's history
    keeps the caller's (frame-shared) dict and must never see those
    writes, nor make any of its own."""

    FRAME = {"frame_id": 7, "frame_encoded_at": 0.25, "frame_packets": 2}

    @staticmethod
    def _nack(flow, seqs):
        from repro.net.packet import Packet
        packet = Packet(flow.reversed(), 120, PacketKind.RTCP_OTHER)
        packet.headers["nack_seqs"] = list(seqs)
        return packet

    def test_middlebox_mark_reaches_neither_history_nor_retransmission(
            self, sim, pair, flow):
        sender, _ = pair
        emitted = []
        sender.transmit = emitted.append
        frame = dict(self.FRAME)
        first = sender.send_packet(1200, frame)
        second = sender.send_packet(800, frame)
        first.headers["abc_mark"] = "brake"        # an ABC router's write
        assert "abc_mark" not in second.headers
        assert sender._history[0][2] == self.FRAME
        sender.on_nack(self._nack(flow, [0]))
        retransmission = emitted[-1]
        assert retransmission.headers == {**self.FRAME, "twcc_seq": 2}
        retransmission.headers["abc_mark"] = "accelerate"
        assert sender._history[2][2] == self.FRAME

    def test_sending_leaves_the_callers_dict_unchanged(self, sim, pair,
                                                       flow):
        sender, _ = pair
        sender.transmit = lambda p: None
        frame = dict(self.FRAME)
        packet = sender.send_packet(1200, frame)
        sender.on_nack(self._nack(flow, [0]))
        assert frame == self.FRAME
        assert packet.headers["twcc_seq"] == 0
        assert packet.headers is not frame
