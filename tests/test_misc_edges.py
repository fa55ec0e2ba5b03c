"""Edge-case tests across small uncovered paths."""

import pytest

from repro.core.feedback_updater import OutOfBandFeedbackUpdater
from repro.core.fortune_teller import DelayPrediction, FortuneTeller
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue
from repro.sim.random import DeterministicRandom
from repro.traces.trace import BandwidthTrace


class TestDelayPrediction:
    def test_total_sums_components(self):
        prediction = DelayPrediction(0.010, 0.005, 0.002)
        assert prediction.total == pytest.approx(0.017)

    def test_zero_prediction(self):
        assert DelayPrediction(0.0, 0.0, 0.0).total == 0.0


class TestOutOfBandNonDistributional:
    def test_per_packet_mode_delivers_exact_deltas(self, sim, flow):
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           rng=DeterministicRandom(1),
                                           distributional=False)
        updater._pending_deltas.append((0.0, 0.004))
        assert updater.ack_delay(0.0) == pytest.approx(0.004)
        # Queue of pending deltas drained.
        assert updater.ack_delay(0.1) == 0.0

    def test_rtcp_kinds_also_delayed(self, sim, flow):
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        updater = OutOfBandFeedbackUpdater(sim, teller,
                                           rng=DeterministicRandom(1))
        updater.delta_history.push(sim.now, 0.006)
        forwarded = []
        twcc = Packet(flow.reversed(), 120, PacketKind.RTCP_TWCC)
        updater.release_forward = lambda p: forwarded.append(sim.now)
        updater.on_feedback_packet(twcc)
        sim.run()
        assert forwarded == [pytest.approx(0.006)]


class TestTraceEdges:
    def test_windows_larger_than_trace(self):
        trace = BandwidthTrace([1e6, 2e6], interval=0.1)
        assert trace.windows(10.0) == [1.5e6]

    def test_resample_to_coarser_and_back(self):
        trace = BandwidthTrace([1e6] * 10, interval=0.1)
        coarse = trace.resampled(0.5)
        fine = coarse.resampled(0.1)
        assert fine.mean_bps == 1e6

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            BandwidthTrace([1e6]).windows(0.0)

    def test_invalid_resample(self):
        with pytest.raises(ValueError):
            BandwidthTrace([1e6]).resampled(-1.0)


class TestFortuneTellerEdges:
    def test_predict_on_totally_cold_state(self, sim):
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue)
        prediction = teller.predict()
        assert prediction.total == 0.0

    def test_long_window_fallback_rate(self, sim, flow):
        """After a stall longer than the short window, qLong falls back
        to the long-window rate instead of reading zero."""
        queue = DropTailQueue()
        teller = FortuneTeller(sim, queue, window=0.040)
        t = 0.0
        for _ in range(20):
            queue.enqueue(Packet(flow, 1200), t)
            queue.dequeue(t + 0.001)
            t += 0.005
        sim.run(until=t + 0.200)  # 200 ms stall: short window empty
        # Several packets: the maxBurstSize correction discounts one
        # burst's worth, so a single packet would legitimately read 0.
        for _ in range(5):
            queue.enqueue(Packet(flow, 1200), sim.now)
        prediction = teller.predict()
        assert teller.tx_rate.rate_bps(sim.now) == 0.0
        assert prediction.q_long > 0.0  # long-window fallback engaged

