"""Tests for the Fortune Teller (§4)."""

import pytest

from repro.core.fortune_teller import FortuneTeller, NaiveQueueEstimator
from repro.core.prediction_join import PredictionJoin
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


@pytest.fixture
def teller(sim, queue):
    return FortuneTeller(sim, queue)


def drive_steady_state(sim, queue, teller, rate_pps=10, packet_size=1200,
                       seconds=1.0, flow=None):
    """Enqueue/dequeue a steady stream so the estimators warm up."""
    from repro.net.packet import FiveTuple
    flow = flow or FiveTuple("s", "c", 1, 2)
    interval = 1.0 / rate_pps
    count = int(seconds / interval)
    t = sim.now
    for _ in range(count):
        packet = Packet(flow, packet_size)
        queue.enqueue(packet, t)
        queue.dequeue(t + interval * 0.9)  # sojourn < interval
        t += interval
    sim.run(until=t)
    return t


class TestQLong:
    def test_empty_queue_zero_qlong(self, sim, queue, teller, flow):
        drive_steady_state(sim, queue, teller, flow=flow)
        prediction = teller.predict()
        assert prediction.q_long == 0.0

    def test_qlong_proportional_to_backlog(self, sim, queue, teller, flow):
        end = drive_steady_state(sim, queue, teller, rate_pps=100, flow=flow)
        # Now 10 packets sit in the queue; txRate ~ 100 pps * 1200 B.
        for _ in range(10):
            queue.enqueue(Packet(flow, 1200), end)
        prediction = teller.predict()
        expected_rate = 1200 * 8 * 100  # bps
        # Burst correction subtracts up to one recent burst (1 packet).
        assert prediction.q_long == pytest.approx(
            (10 * 1200 - 1200) * 8 / expected_rate, rel=0.4)

    def test_no_departures_yet_qlong_zero(self, sim, queue, flow):
        teller = FortuneTeller(sim, queue)
        queue.enqueue(Packet(flow, 1200), 0.0)
        assert teller.predict().q_long == 0.0  # no rate estimate yet


class TestQShort:
    def test_qshort_is_front_wait(self, sim, queue, teller, flow):
        queue.enqueue(Packet(flow, 1200), 0.0)
        sim.run(until=0.025)
        assert teller.predict().q_short == pytest.approx(0.025)

    def test_qshort_zero_when_empty(self, sim, queue, teller):
        sim.run(until=1.0)
        assert teller.predict().q_short == 0.0

    def test_qshort_reacts_instantly_to_stall(self, sim, queue, teller, flow):
        """The §4.1 claim: qShort dominates right after an ABW drop."""
        end = drive_steady_state(sim, queue, teller, rate_pps=100, flow=flow)
        queue.enqueue(Packet(flow, 1200), end)
        # Channel stalls: nothing dequeues for 30 ms.
        sim.run(until=end + 0.030)
        prediction = teller.predict()
        assert prediction.q_short == pytest.approx(0.030, abs=0.001)
        assert prediction.q_short > prediction.q_long


class TestTx:
    def test_tx_matches_interval(self, sim, queue, teller, flow):
        drive_steady_state(sim, queue, teller, rate_pps=200, flow=flow)
        prediction = teller.predict()
        assert prediction.tx == pytest.approx(0.005, rel=0.1)

    def test_total_is_sum(self, sim, queue, teller, flow):
        drive_steady_state(sim, queue, teller, flow=flow)
        prediction = teller.predict()
        assert prediction.total == pytest.approx(
            prediction.q_long + prediction.q_short + prediction.tx)


class TestBurstCorrection:
    def test_burst_correction_reduces_qlong(self, sim, queue, flow):
        corrected = FortuneTeller(sim, queue, burst_correction=True)
        naive = FortuneTeller(sim, queue, burst_correction=False)
        # Warm up with bursty departures: 4 packets dequeue at one instant.
        t = 0.0
        for _ in range(10):
            for _ in range(4):
                queue.enqueue(Packet(flow, 1200), t)
            for _ in range(4):
                queue.dequeue(t + 0.009)
            t += 0.010
        sim.run(until=t)
        for _ in range(4):
            queue.enqueue(Packet(flow, 1200), t)
        assert corrected.predict().q_long < naive.predict().q_long

    def test_correction_never_negative(self, sim, queue, teller, flow):
        drive_steady_state(sim, queue, teller, flow=flow)
        queue.enqueue(Packet(flow, 100), sim.now)
        assert teller.predict().q_long >= 0.0


class TestAccuracyTracking:
    """The teller's forecasts joined against deliveries (Fig. 19)."""

    def test_records_prediction_and_actual(self, sim, queue, teller, flow):
        drive_steady_state(sim, queue, teller, flow=flow)
        join = PredictionJoin(sim, record=True)
        packet = Packet(flow, 1200)
        prediction = teller.predict()
        join.note(packet.pkt_id, prediction.total)
        sim.run(until=sim.now + 0.012)
        join.deliver(packet.pkt_id)
        assert list(join.predicted) == [prediction.total]
        assert list(join.actual) == [pytest.approx(0.012)]

    def test_undelivered_not_in_pairs(self, sim, queue, teller, flow):
        join = PredictionJoin(sim, record=True)
        join.note(Packet(flow, 1200).pkt_id, teller.predict().total)
        assert len(join) == 1
        assert len(join.predicted) == len(join.actual) == 0

    def test_recording_disabled_by_default(self, sim, queue, teller, flow):
        join = PredictionJoin(sim)
        packet = Packet(flow, 1200)
        join.note(packet.pkt_id, teller.predict().total)
        join.deliver(packet.pkt_id)
        assert len(join) == 0
        assert len(join.predicted) == len(join.actual) == 0


class TestNaiveEstimator:
    def test_naive_misses_stall(self, sim, queue, flow):
        """The transience-equilibrium nexus: naive estimator reacts slowly."""
        naive = NaiveQueueEstimator(sim, queue)
        full = FortuneTeller(sim, queue)
        t = 0.0
        for _ in range(100):
            queue.enqueue(Packet(flow, 1200), t)
            queue.dequeue(t + 0.004)
            t += 0.005
        sim.run(until=t)
        queue.enqueue(Packet(flow, 1200), t)
        sim.run(until=t + 0.030)  # stall: nothing dequeues
        assert naive.predict().total < full.predict().total
