"""Tests for the in-band (TWCC) Feedback Updater (§5.3)."""

import pytest

from repro.core.fortune_teller import FortuneTeller
from repro.core.inband import InBandFeedbackUpdater
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.transport.rtp import TwccFeedback


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


@pytest.fixture
def updater(sim, queue, flow):
    teller = FortuneTeller(sim, queue)
    return InBandFeedbackUpdater(sim, teller, flow,
                                 feedback_interval=0.040)


class TestFortuneRecording:
    def test_records_predicted_arrival(self, sim, updater, flow):
        packet = Packet(flow, 1200, headers={"twcc_seq": 5})
        updater.on_data_packet(packet)
        assert 5 in updater._predicted_arrivals

    def test_ignores_packets_without_twcc(self, sim, updater, flow):
        updater.on_data_packet(Packet(flow, 1200))
        assert updater._predicted_arrivals == {}


class TestFeedbackConstruction:
    def test_feedback_emitted_on_timer(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 0}))
        sim.run(until=0.050)
        assert len(sent) == 1
        feedback = sent[0].headers["twcc_feedback"]
        assert feedback.constructed_by == "zhuge-ap"
        assert 0 in feedback.arrivals

    def test_no_feedback_when_idle(self, sim, updater):
        sent = []
        updater.send_uplink = sent.append
        sim.run(until=0.2)
        assert sent == []

    def test_predicted_arrival_in_future(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 0}))
        arrival_estimate = updater._predicted_arrivals[0]
        assert arrival_estimate >= sim.now

    def test_feedback_packet_kind(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 0}))
        sim.run(until=0.050)
        assert sent[0].kind is PacketKind.RTCP_TWCC
        assert sent[0].flow == flow.reversed()

    def test_pending_cleared_between_feedbacks(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 0}))
        sim.run(until=0.050)
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 1}))
        sim.run(until=0.090)
        assert len(sent) == 2
        assert list(sent[1].headers["twcc_feedback"].arrivals) == [1]

    def test_stop_halts_timer(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        updater.on_data_packet(Packet(flow, 1200, headers={"twcc_seq": 0}))
        updater.stop()
        sim.run(until=1.0)
        assert sent == []


class TestReorderedDownlink:
    """TWCC feedback when downlink packets reach the AP out of order."""

    def _deliver(self, updater, flow, seqs):
        for seq in seqs:
            updater.on_data_packet(Packet(flow, 1200,
                                          headers={"twcc_seq": seq}))

    def test_all_seqs_reported(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        self._deliver(updater, flow, [2, 0, 1])
        sim.run(until=0.050)
        feedback = sent[0].headers["twcc_feedback"]
        assert sorted(feedback.arrivals) == [0, 1, 2]

    def test_predicted_arrivals_monotone_in_delivery_order(
            self, sim, updater, flow):
        # Seq 2 is observed first; the late seqs 0 and 1 must not be
        # stamped before it — a real receiver's clock never runs
        # backwards, so the clamp reports them at seq 2's time or later.
        self._deliver(updater, flow, [2, 0, 1])
        arrivals = updater._predicted_arrivals
        assert arrivals[0] >= arrivals[2]
        assert arrivals[1] >= arrivals[0]

    def test_base_seq_advances_past_highest(self, sim, updater, flow):
        sent = []
        updater.send_uplink = sent.append
        self._deliver(updater, flow, [5, 3, 4])
        sim.run(until=0.050)
        assert sent[0].headers["twcc_feedback"].base_seq == 0
        assert updater._base_seq == 6

    def test_straggler_after_feedback_still_reported(self, sim, updater,
                                                     flow):
        sent = []
        updater.send_uplink = sent.append
        self._deliver(updater, flow, [1, 2])
        sim.run(until=0.050)
        # Seq 0 arrives a whole feedback interval late.
        self._deliver(updater, flow, [0])
        sim.run(until=0.090)
        assert len(sent) == 2
        assert list(sent[1].headers["twcc_feedback"].arrivals) == [0]
        late = sent[1].headers["twcc_feedback"].arrivals[0]
        early = sent[0].headers["twcc_feedback"].arrivals[2]
        assert late >= early  # clock still monotone across feedbacks


class TestClientFeedbackSuppression:
    def test_client_twcc_dropped(self, sim, updater, flow):
        forwarded = []
        packet = Packet(flow.reversed(), 120, PacketKind.RTCP_TWCC)
        packet.headers["twcc_feedback"] = TwccFeedback(
            base_seq=0, constructed_by="receiver")
        updater.send_uplink = forwarded.append
        updater.on_feedback_packet(packet)
        assert forwarded == []
        assert updater.client_feedback_dropped == 1

    def test_own_twcc_forwarded(self, sim, updater, flow):
        forwarded = []
        packet = Packet(flow.reversed(), 120, PacketKind.RTCP_TWCC)
        packet.headers["twcc_feedback"] = TwccFeedback(
            base_seq=0, constructed_by="zhuge-ap")
        updater.send_uplink = forwarded.append
        updater.on_feedback_packet(packet)
        assert len(forwarded) == 1

    def test_other_rtcp_forwarded(self, sim, updater, flow):
        forwarded = []
        nack = Packet(flow.reversed(), 120, PacketKind.RTCP_OTHER)
        updater.send_uplink = forwarded.append
        updater.on_feedback_packet(nack)
        assert len(forwarded) == 1
