"""Tests for the QUIC-style transport and Zhuge-over-QUIC (§6)."""

import pytest

from repro.cca.copa import CopaCca
from repro.core.feedback_updater import OutOfBandFeedbackUpdater
from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.random import DeterministicRandom
from repro.transport.quic import QuicReceiver, QuicSender


@pytest.fixture
def pair(sim, flow):
    sender = QuicSender(sim, flow, CopaCca(mss=1200), mss=1200)
    receiver = QuicReceiver(sim, flow)
    return sender, receiver


def wire(sim, sender, receiver, delay=0.010, loss_pns=()):
    dropped = set()

    def down(packet):
        pn = packet.headers["quic_sealed"]["pn"]
        if pn in loss_pns and pn not in dropped:
            dropped.add(pn)
            return
        sim.schedule(delay, lambda p=packet: receiver.on_data(p))

    def up(packet):
        sim.schedule(delay, lambda p=packet: sender.on_ack(p))

    sender.transmit = down
    receiver.transmit = up


class TestBasics:
    def test_delivery_and_ack(self, sim, pair):
        sender, receiver = pair
        wire(sim, sender, receiver)
        delivered = []
        receiver.on_deliver = lambda payload, now: delivered.append(payload)
        sender.write(3600, meta={"frame_id": 1})
        sim.run(until=1.0)
        assert len(delivered) == 3
        assert delivered[-1]["last_of_write"] is True
        assert sender._srtt > 0

    def test_rtt_subtracts_ack_delay(self, sim, pair, flow):
        sender, _ = pair
        sender.transmit = lambda p: None
        sender.write(1200)
        sim.run(until=0.05)
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        ack.headers["quic_sealed"] = {"acked": [0], "ack_delay": 0.020}
        sender.on_ack(ack)
        assert sender._srtt == pytest.approx(0.030, abs=1e-6)

    def test_retransmission_uses_new_pn(self, sim, pair):
        sender, receiver = pair
        wire(sim, sender, receiver, loss_pns={0})
        delivered = []
        receiver.on_deliver = lambda payload, now: delivered.append(payload)
        sender.write(6000)
        sim.run(until=2.0)
        assert sender.retransmissions >= 1
        assert len(delivered) == 5  # every chunk eventually delivered

    def test_pto_recovers_tail_loss(self, sim, pair):
        sender, receiver = pair
        wire(sim, sender, receiver, loss_pns={0})
        delivered = []
        receiver.on_deliver = lambda payload, now: delivered.append(payload)
        sender.write(1200)  # single packet, no later ACKs -> PTO
        sim.run(until=5.0)
        assert sender.pto_count >= 1
        assert len(delivered) == 1


class TestOpaqueness:
    def test_middlebox_needs_only_five_tuple(self, sim, pair, flow):
        """Zhuge's out-of-band updater delays QUIC ACKs without touching
        sealed headers — the §6 encrypted-transport claim."""
        sender, receiver = pair
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           rng=DeterministicRandom(1))
        updater.release_forward = lambda p: sim.schedule(
            0.010, lambda pp=p: sender.on_ack(pp))
        held = []

        def down(packet):
            # The AP-side observation path: only the five-tuple and size
            # are read, then forwarded.
            updater.on_data_packet(packet)
            sim.schedule(0.010, lambda p=packet: receiver.on_data(p))

        def up(packet):
            updater.on_feedback_packet(packet)
            held.append(packet)

        sender.transmit = down
        receiver.transmit = up
        sender.write(3600)
        sim.run(until=1.0)
        assert sender._srtt > 0
        # The sealed headers passed through unmodified.
        for packet in held:
            assert set(packet.headers["quic_sealed"]) == {"acked",
                                                          "ack_delay"}

    def test_injected_ack_delay_raises_measured_rtt(self, sim, pair):
        """Delaying the ACK raises the sender's RTT estimate — the exact
        signal path Zhuge uses for out-of-band protocols."""
        sender, receiver = pair
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           rng=DeterministicRandom(1))
        updater.delta_history.push(0.0, 0.050)
        updater.delta_history.window = 1e9  # keep the delta forever
        updater.release_forward = lambda p: sim.schedule(
            0.010, lambda pp=p: sender.on_ack(pp))

        def down(packet):
            sim.schedule(0.010, lambda p=packet: receiver.on_data(p))

        def up(packet):
            updater.on_feedback_packet(packet)

        sender.transmit = down
        receiver.transmit = up
        sender.write(1200)
        sim.run(until=1.0)
        assert sender._srtt >= 0.060  # 20ms path + 50ms injected
