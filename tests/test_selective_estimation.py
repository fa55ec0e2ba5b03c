"""Tests for the §7.6 selective-estimation optimization."""

import pytest

from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


class TestSelectiveEstimation:
    def test_cache_reused_within_interval(self, sim, queue):
        teller = FortuneTeller(sim, queue, min_estimation_interval=0.005)
        first = teller.predict()
        second = teller.predict()  # same instant -> cached
        assert second is first
        assert teller.cache_hits == 1
        assert teller.predictions_made == 1

    def test_recomputed_after_interval(self, sim, queue, flow):
        teller = FortuneTeller(sim, queue, min_estimation_interval=0.005)
        teller.predict()
        sim.run(until=0.010)
        queue.enqueue(Packet(flow, 1200), sim.now)
        second = teller.predict()
        assert teller.predictions_made == 2
        assert second.q_short == 0.0  # freshly computed at t=0.010

    def test_disabled_by_default(self, sim, queue):
        teller = FortuneTeller(sim, queue)
        teller.predict()
        teller.predict()
        assert teller.cache_hits == 0
        assert teller.predictions_made == 2

    def test_stale_cache_misses_change_within_interval(self, sim, queue,
                                                       flow):
        """The documented trade-off: within the interval, queue changes
        are invisible — the reused fortune can be stale."""
        teller = FortuneTeller(sim, queue, min_estimation_interval=0.050)
        fresh = FortuneTeller(sim, queue)
        teller.predict()
        queue.enqueue(Packet(flow, 1200), sim.now)
        sim.run(until=0.020)
        assert teller.predict().q_short == 0.0        # stale
        assert fresh.predict().q_short == pytest.approx(0.020)

    def test_reduces_computation_under_load(self, sim, queue, flow):
        teller = FortuneTeller(sim, queue, min_estimation_interval=0.004)
        t = 0.0
        for _ in range(100):
            teller.predict()
            sim.run(until=t + 0.001)
            t += 0.001
        assert teller.cache_hits > 50
