"""Tests for the out-of-band Feedback Updater (§5.2, Algorithms 1-2)."""

import pytest

from repro.core.feedback_updater import FeedbackKind, OutOfBandFeedbackUpdater
from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.random import DeterministicRandom
from repro.topology.spec import PROTOCOLS
from repro.topology.stacks import STACKS


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


@pytest.fixture
def teller(sim, queue):
    return FortuneTeller(sim, queue)


@pytest.fixture
def updater(sim, teller):
    return OutOfBandFeedbackUpdater(sim, teller,
                                    rng=DeterministicRandom(1))


def warm_queue(sim, queue, flow, rate_pps=100, seconds=0.5):
    interval = 1.0 / rate_pps
    t = sim.now
    count = int(seconds / interval)
    for _ in range(count):
        packet = Packet(flow, 1200)
        queue.enqueue(packet, t)
        queue.dequeue(t + interval * 0.5)
        t += interval
    sim.run(until=t)


class TestClassification:
    def test_table2_mapping(self):
        """Paper Table 2, as the builder reads it off each stack."""
        assert STACKS["tcp"].kind is FeedbackKind.OUT_OF_BAND
        assert STACKS["quic"].kind is FeedbackKind.OUT_OF_BAND
        assert STACKS["rtp"].kind is FeedbackKind.IN_BAND
        assert sorted(STACKS) == sorted(PROTOCOLS)


class TestAlgorithm1:
    def test_first_packet_zero_delta(self, updater, flow):
        delta = updater.on_data_packet(Packet(flow, 1200))
        assert delta == 0.0

    def test_positive_delta_stored_in_history(self, sim, queue, updater, flow):
        warm_queue(sim, queue, flow)
        updater.on_data_packet(Packet(flow, 1200))
        # Build a backlog so the next prediction is higher.
        for _ in range(20):
            queue.enqueue(Packet(flow, 1200), sim.now)
        delta = updater.on_data_packet(Packet(flow, 1200))
        assert delta > 0
        assert len(updater.delta_history) == 1

    def test_negative_delta_becomes_token(self, sim, queue, updater, flow):
        warm_queue(sim, queue, flow)
        for _ in range(20):
            queue.enqueue(Packet(flow, 1200), sim.now)
        updater.on_data_packet(Packet(flow, 1200))
        # Drain the backlog: prediction falls, delta is negative.
        while not queue.is_empty:
            queue.dequeue(sim.now)
        sim.run(until=sim.now + 0.002)
        delta = updater.on_data_packet(Packet(flow, 1200))
        assert delta < 0
        assert updater.outstanding_tokens == pytest.approx(-delta)

    def test_tokens_disabled(self, sim, queue, teller, flow):
        updater = OutOfBandFeedbackUpdater(sim, teller, use_tokens=False)
        warm_queue(sim, queue, flow)
        for _ in range(20):
            queue.enqueue(Packet(flow, 1200), sim.now)
        updater.on_data_packet(Packet(flow, 1200))
        while not queue.is_empty:
            queue.dequeue(sim.now)
        updater.on_data_packet(Packet(flow, 1200))
        assert updater.outstanding_tokens == 0.0


class TestAlgorithm2:
    def test_no_history_no_delay(self, updater):
        assert updater.ack_delay(1.0) == 0.0

    def test_sampled_delta_applied(self, sim, updater):
        updater.delta_history.push(sim.now, 0.005)
        assert updater.ack_delay(sim.now) == pytest.approx(0.005)

    def test_order_preservation_clamp(self, sim, updater):
        updater.delta_history.push(sim.now, 0.010)
        first = updater.ack_delay(0.0)        # held until t=0.010
        assert first == pytest.approx(0.010)
        # Second ACK arrives at t=0.001; without new deltas it must still
        # wait until the first one has gone out.
        updater.delta_history.clear()
        second = updater.ack_delay(0.001)
        assert second == pytest.approx(0.009)

    def test_tokens_consume_delay(self, sim, updater):
        updater.token_history.append(0.004)
        updater.delta_history.push(sim.now, 0.010)
        delay = updater.ack_delay(sim.now)
        assert delay == pytest.approx(0.006)
        assert updater.outstanding_tokens == 0.0

    def test_token_larger_than_delay_partially_consumed(self, sim, updater):
        updater.token_history.append(0.02)
        updater.delta_history.push(sim.now, 0.005)
        assert updater.ack_delay(sim.now) == 0.0
        assert updater.outstanding_tokens == pytest.approx(0.015)

    def test_multiple_tokens_consumed_in_order(self, sim, updater):
        updater.token_history.append(0.002)
        updater.token_history.append(0.003)
        updater.delta_history.push(sim.now, 0.010)
        assert updater.ack_delay(sim.now) == pytest.approx(0.005)
        assert len(updater.token_history) == 0

    def test_max_extra_delay_cap(self, sim, teller):
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           max_extra_delay=0.008)
        updater.delta_history.push(sim.now, 0.1)
        assert updater.ack_delay(sim.now) == pytest.approx(0.008)


class TestAverageDelayInvariant:
    def test_zero_mean_deltas_keep_delay_bounded(self, sim, teller):
        """Tokens bank negative deltas so a zero-mean delta stream does
        not let the injected ACK delay drift upward (§5.2)."""
        rng = DeterministicRandom(7)
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           rng=DeterministicRandom(8))
        injected = []
        t = 0.0
        for _ in range(2000):
            updater.bank(t, rng.gauss(0.0, 0.002))  # zero mean, mixed signs
            injected.append(updater.ack_delay(t))
            t += 0.001
        mean_injected = sum(injected) / len(injected)
        assert mean_injected < 0.010
        # And the tail of the run must not be systematically worse than
        # the head (no unbounded drift).
        head = sum(injected[:500]) / 500
        tail = sum(injected[-500:]) / 500
        assert tail < head + 0.010

    def test_without_tokens_delay_drifts(self, sim, teller):
        """Ablation: disabling the token bank lets delay accumulate."""
        rng = DeterministicRandom(7)
        with_tokens = OutOfBandFeedbackUpdater(
            sim, teller, rng=DeterministicRandom(8), use_tokens=True,
            max_extra_delay=10.0)
        without_tokens = OutOfBandFeedbackUpdater(
            sim, teller, rng=DeterministicRandom(8), use_tokens=False,
            max_extra_delay=10.0)
        t = 0.0
        drift_with = drift_without = 0.0
        for _ in range(2000):
            delta = rng.gauss(0.0, 0.002)
            for updater in (with_tokens, without_tokens):
                updater.bank(t, delta)
            drift_with = with_tokens.ack_delay(t)
            drift_without = without_tokens.ack_delay(t)
            t += 0.001
        assert drift_without > drift_with


class TestPacketForwarding:
    def test_ack_forwarded_after_delay(self, sim, updater, flow):
        updater.delta_history.push(sim.now, 0.007)
        forwarded = []
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        updater.release_forward = lambda p: forwarded.append(sim.now)
        updater.on_feedback_packet(ack)
        sim.run()
        assert forwarded == [pytest.approx(0.007)]

    def test_zero_delay_forwards_immediately(self, sim, updater, flow):
        forwarded = []
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        updater.release_forward = lambda p: forwarded.append(sim.now)
        updater.on_feedback_packet(ack)
        assert forwarded == [0.0]

    def test_data_packets_not_delayed(self, sim, updater, flow):
        updater.delta_history.push(sim.now, 0.007)
        forwarded = []
        data = Packet(flow, 1200, PacketKind.DATA)
        updater.release_forward = lambda p: forwarded.append(sim.now)
        updater.on_feedback_packet(data)
        assert forwarded == [0.0]

    def test_counters(self, sim, updater, flow):
        updater.delta_history.push(sim.now, 0.004)
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        updater.release_forward = lambda p: None
        updater.on_feedback_packet(ack)
        assert updater.acks_delayed == 1
        assert updater.total_injected_delay == pytest.approx(0.004)
