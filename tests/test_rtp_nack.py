"""Tests for RTP NACK loss recovery."""

import pytest

from repro.cca.gcc import GccController
from repro.net.packet import Packet, PacketKind
from repro.transport.rtp import NACK_RETRIES, RtpReceiver, RtpSender


@pytest.fixture
def pair(sim, flow):
    sender = RtpSender(sim, flow, GccController(initial_bps=1e6))
    receiver = RtpReceiver(sim, flow)
    return sender, receiver


def wire(sim, sender, receiver, delay=0.010, loss_seqs=()):
    def down(packet):
        if packet.headers.get("twcc_seq") in loss_seqs:
            loss_seqs.discard(packet.headers["twcc_seq"])
            return
        sim.schedule(delay, lambda p=packet: receiver.on_data(p))

    def up(packet):
        if packet.kind == PacketKind.RTCP_OTHER:
            sim.schedule(delay, lambda p=packet: sender.on_nack(p))
        else:
            sim.schedule(delay, lambda p=packet: sender.on_feedback(p))

    sender.transmit = down
    receiver.transmit = up


class TestGapDetection:
    def test_gap_recorded_as_missing(self, sim, pair):
        sender, receiver = pair
        sender.transmit = lambda p: None
        receiver.transmit = lambda p: None
        first = Packet(pair[0].flow, 1200, headers={"twcc_seq": 0})
        third = Packet(pair[0].flow, 1200, headers={"twcc_seq": 2})
        receiver.on_data(first)
        receiver.on_data(third)
        assert 1 in receiver._missing

    def test_arrival_clears_missing(self, sim, pair):
        _, receiver = pair
        receiver.transmit = lambda p: None
        receiver.on_data(Packet(pair[0].flow, 1200, headers={"twcc_seq": 0}))
        receiver.on_data(Packet(pair[0].flow, 1200, headers={"twcc_seq": 2}))
        receiver.on_data(Packet(pair[0].flow, 1200, headers={"twcc_seq": 1}))
        assert 1 not in receiver._missing


class TestNackRoundTrip:
    def test_lost_packet_retransmitted_and_frame_completes(self, sim, pair):
        sender, receiver = pair
        losses = {1}
        wire(sim, sender, receiver, loss_seqs=losses)
        media = []
        receiver.on_media = media.append
        for i in range(4):
            sender.send_packet(headers={"frame_id": 0,
                                        "frame_encoded_at": 0.0,
                                        "frame_packets": 4})
        sim.run(until=0.5)
        assert sender.nacks_received >= 1
        assert sender.retransmissions == 1
        frame_ids = [p.headers.get("frame_id") for p in media]
        assert frame_ids.count(0) == 4  # all four packets arrived

    def test_no_duplicate_retransmissions(self, sim, pair):
        sender, receiver = pair
        sender.transmit = lambda p: None
        nack = Packet(pair[0].flow.reversed(), 120, PacketKind.RTCP_OTHER)
        sender.send_packet()
        nack.headers["nack_seqs"] = [0]
        sender.on_nack(nack)
        sender.on_nack(nack)
        assert sender.retransmissions == 1

    def test_nack_for_unknown_seq_ignored(self, sim, pair):
        sender, _ = pair
        sender.transmit = lambda p: None
        nack = Packet(pair[0].flow.reversed(), 120, PacketKind.RTCP_OTHER)
        nack.headers["nack_seqs"] = [999]
        sender.on_nack(nack)
        assert sender.retransmissions == 0

    def test_gives_up_after_retries(self, sim, pair):
        sender, receiver = pair
        # Sender never retransmits (transmit drops everything after the
        # gap), so the receiver must stop NACKing eventually.
        sender.transmit = lambda p: None
        receiver.transmit = lambda p: None
        receiver.on_data(Packet(pair[0].flow, 1200, headers={"twcc_seq": 0}))
        receiver.on_data(Packet(pair[0].flow, 1200, headers={"twcc_seq": 5}))
        sim.run(until=2.0)
        assert receiver._missing == {}
        assert receiver.nacks_sent <= NACK_RETRIES + 1

    def test_retransmission_gets_new_twcc_seq(self, sim, pair):
        sender, _ = pair
        sent = []
        sender.transmit = sent.append
        sender.send_packet(headers={"frame_id": 3})
        nack = Packet(pair[0].flow.reversed(), 120, PacketKind.RTCP_OTHER)
        nack.headers["nack_seqs"] = [0]
        sender.on_nack(nack)
        assert sent[1].headers["twcc_seq"] == 1
        assert sent[1].headers["frame_id"] == 3
