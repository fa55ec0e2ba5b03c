"""Tests for per-flow Fortune Tellers over flow-isolating queues (§4.1)."""

import pytest

from repro.aqm.fq_codel import FqCoDelQueue
from repro.core.feedback_updater import FeedbackKind
from repro.core.fortune_teller import FortuneTeller
from repro.core.zhuge_ap import ZhugeAP
from repro.net.packet import FiveTuple, Packet


@pytest.fixture
def fq():
    return FqCoDelQueue(capacity_bytes=1_000_000)


@pytest.fixture
def flows():
    return (FiveTuple("s", "c", 1, 2), FiveTuple("s", "c", 3, 4))


class TestPerFlowTeller:
    def test_reads_own_subqueue_only(self, sim, fq, flows):
        rtc, bulk = flows
        teller = FortuneTeller(sim, fq, flow=rtc)
        # Pile up the competitor's sub-queue.
        for _ in range(50):
            fq.enqueue(Packet(bulk, 1200), 0.0)
        prediction = teller.predict()
        assert prediction.q_long == 0.0
        assert prediction.q_short == 0.0

    def test_sees_own_backlog(self, sim, fq, flows):
        rtc, _ = flows
        teller = FortuneTeller(sim, fq, flow=rtc)
        # Warm up the rate estimators with this flow's departures.
        t = 0.0
        for _ in range(20):
            fq.enqueue(Packet(rtc, 1200), t)
            fq.dequeue(t + 0.002)
            t += 0.005
        sim.run(until=t)
        for _ in range(5):
            fq.enqueue(Packet(rtc, 1200), t)
        assert teller.predict().q_long > 0.0

    def test_departure_filter(self, sim, fq, flows):
        rtc, bulk = flows
        teller = FortuneTeller(sim, fq, flow=rtc)
        t = 0.0
        # Only bulk traffic moves; the rtc teller's estimators stay cold.
        for _ in range(20):
            fq.enqueue(Packet(bulk, 1200), t)
            fq.dequeue(t + 0.002)
            t += 0.005
        sim.run(until=t)
        assert teller.tx_rate.rate_bps(sim.now) == 0.0

    def test_front_wait_of_own_flow(self, sim, fq, flows):
        rtc, bulk = flows
        teller = FortuneTeller(sim, fq, flow=rtc)
        fq.enqueue(Packet(bulk, 1200), 0.0)
        fq.enqueue(Packet(rtc, 1200), 1.0)
        sim.run(until=3.0)
        # rtc's head packet has waited 2 s; bulk's 3 s — the teller must
        # report its own flow's wait.
        assert teller.predict().q_short == pytest.approx(2.0)


class TestZhugeApIsolation:
    def test_per_flow_tellers_created(self, sim, fq, flows):
        ap = ZhugeAP(sim, fq)
        rtc, other = flows
        ap.register_flow(rtc, FeedbackKind.IN_BAND)
        ap.register_flow(other, FeedbackKind.OUT_OF_BAND)
        assert rtc in ap._flow_tellers
        assert other in ap._flow_tellers
        assert ap._flow_tellers[rtc] is not ap._flow_tellers[other]

    def test_shared_queue_uses_shared_teller(self, sim, flows):
        from repro.net.queue import DropTailQueue
        queue = DropTailQueue()
        ap = ZhugeAP(sim, queue)
        ap.register_flow(flows[0], FeedbackKind.OUT_OF_BAND)
        assert ap._flow_tellers == {}
        updater = ap.updaters[flows[0]]
        assert updater.fortune_teller is ap.fortune_teller

    def test_competitor_backlog_invisible_to_rtc_prediction(self, sim, fq,
                                                            flows):
        ap = ZhugeAP(sim, fq)
        rtc, bulk = flows
        ap.register_flow(rtc, FeedbackKind.IN_BAND)
        ap.forward_downlink = lambda p: None
        for _ in range(100):
            fq.enqueue(Packet(bulk, 1200), 0.0)
        updater = ap.updaters[rtc]
        packet = Packet(rtc, 1200, headers={"twcc_seq": 0})
        ap.on_downlink(packet)
        predicted = updater._predicted_arrivals[0]
        # Predicted arrival ~ now (empty own queue), not behind 100
        # competitor packets.
        assert predicted - sim.now < 0.010
