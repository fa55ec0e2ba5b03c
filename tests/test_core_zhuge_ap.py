"""Tests for the ZhugeAP middlebox."""

import pytest

from repro.core.feedback_updater import (FeedbackKind,
                                         OutOfBandFeedbackUpdater)
from repro.core.inband import InBandFeedbackUpdater
from repro.core.zhuge_ap import ZhugeAP
from repro.net.packet import Packet, PacketKind
from repro.net.queue import DropTailQueue


@pytest.fixture
def queue():
    return DropTailQueue(capacity_bytes=1_000_000)


@pytest.fixture
def ap(sim, queue):
    return ZhugeAP(sim, queue)


class TestRegistration:
    def test_registered_kind(self, ap, flow):
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        assert isinstance(ap.updaters[flow], OutOfBandFeedbackUpdater)
        assert flow.reversed() not in ap.updaters

    def test_in_band_registration(self, ap, flow):
        ap.register_flow(flow, FeedbackKind.IN_BAND)
        assert isinstance(ap.updaters[flow], InBandFeedbackUpdater)


class TestDatapath:
    def test_downlink_forwarded(self, ap, flow):
        forwarded = []
        ap.forward_downlink = forwarded.append
        packet = Packet(flow, 1200)
        ap.on_downlink(packet)
        assert forwarded == [packet]

    def test_unregistered_uplink_passthrough(self, ap, flow):
        forwarded = []
        ap.forward_uplink = forwarded.append
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        ap.on_uplink(ack)
        assert forwarded == [ack]

    def test_oob_flow_acks_go_through_updater(self, sim, ap, flow):
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        updater = ap.updaters[flow]
        forwarded = []
        ap.forward_uplink = forwarded.append
        ack = Packet(flow.reversed(), 60, PacketKind.ACK)
        ap.on_uplink(ack)
        sim.run()
        assert forwarded == [ack]
        assert updater.acks_delayed == 1

    def test_inband_flow_client_twcc_dropped(self, sim, ap, flow):
        from repro.transport.rtp import TwccFeedback
        ap.register_flow(flow, FeedbackKind.IN_BAND)
        forwarded = []
        ap.forward_uplink = forwarded.append
        twcc = Packet(flow.reversed(), 120, PacketKind.RTCP_TWCC)
        twcc.headers["twcc_feedback"] = TwccFeedback(0, constructed_by="receiver")
        ap.on_uplink(twcc)
        assert forwarded == []

    def test_counters(self, ap, flow):
        ap.forward_downlink = lambda p: None
        ap.forward_uplink = lambda p: None
        ap.on_downlink(Packet(flow, 1200))
        ap.on_uplink(Packet(flow.reversed(), 60, PacketKind.ACK))
        assert ap.packets_processed == 2


class TestPendingDeltaBoundedness:
    def test_pending_deltas_age_out_under_delayed_acks(self, sim, queue,
                                                       flow):
        """Regression: in non-distributional mode, ACKs arriving slower
        than data packets (delayed-ACK TCP) must not leak banked deltas
        without bound — entries older than the window age out."""
        ap = ZhugeAP(sim, queue)
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        ap.forward_downlink = lambda p: None
        ap.forward_uplink = lambda p: None
        updater = ap.updaters[flow]
        updater.distributional = False

        # 500 data packets at 1 ms spacing, zero ACKs: the worst case of
        # the leak. With the 40 ms window, only ~window/spacing entries
        # may survive at any moment.
        for i in range(500):
            sim.schedule(i * 0.001,
                         lambda i=i: ap.on_downlink(Packet(flow, 1200,
                                                           seq=i)))
        sim.run()
        assert updater.pending_delta_count <= 64
        assert updater.pending_deltas_expired >= 400

    def test_distributional_mode_banks_no_pending(self, sim, queue, flow):
        ap = ZhugeAP(sim, queue)
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        ap.forward_downlink = lambda p: None
        for i in range(50):
            ap.on_downlink(Packet(flow, 1200, seq=i))
        assert ap.updaters[flow].pending_delta_count == 0

    def test_hotpath_stats_surface(self, sim, queue, flow):
        ap = ZhugeAP(sim, queue)
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        ap.forward_downlink = lambda p: None
        ap.forward_uplink = lambda p: None
        for i in range(10):
            ap.on_downlink(Packet(flow, 1200, seq=i))
        ap.on_uplink(Packet(flow.reversed(), 60, PacketKind.ACK))
        sim.run()
        stats = {s.component: s for s in ap.hotpath_stats()}
        assert stats["total"].predictions == 10
        assert stats["total"].acks_delayed == 1
        assert stats["total"].estimator_ops > 0


class TestAccuracyHookup:
    def test_delivery_recorded_when_enabled(self, sim, queue, flow):
        ap = ZhugeAP(sim, queue)
        assert ap.predictions is None  # nothing subscribed yet
        join = ap.join_predictions(record=True)
        ap.register_flow(flow, FeedbackKind.OUT_OF_BAND)
        ap.forward_downlink = lambda p: None
        packet = Packet(flow, 1200)
        ap.on_downlink(packet)
        sim.run(until=0.010)
        ap.on_wireless_delivery(packet)
        assert list(join.predicted) == [
            ap.fortune_teller.last_prediction.total]
        assert list(join.actual) == [pytest.approx(0.010)]
