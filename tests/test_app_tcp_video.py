"""Unit tests for the video-over-TCP application."""

import pytest

from repro.app.video import TcpVideoApp, VideoEncoder
from repro.cca.copa import CopaCca
from repro.sim.random import DeterministicRandom
from repro.transport.tcp import TcpReceiver, TcpSender


@pytest.fixture
def stack(sim, flow):
    sender = TcpSender(sim, flow, CopaCca())
    receiver = TcpReceiver(sim, flow)
    encoder = VideoEncoder(fps=25, rng=DeterministicRandom(1))
    app = TcpVideoApp(sim, sender, receiver, encoder)
    return sender, receiver, app


def wire(sim, sender, receiver, delay=0.008):
    sender.transmit = (
        lambda p: sim.schedule(delay, lambda pp=p: receiver.on_data(pp)))
    receiver.transmit = (
        lambda p: sim.schedule(delay, lambda pp=p: sender.on_ack(pp)))


class TestTcpVideoApp:
    def test_frames_decode_in_order(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=2.0)
        assert app.frame_recorder.count >= 40
        times = app.frame_recorder.frame_times
        assert list(times) == sorted(times)

    def test_rate_follows_transport_estimate(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=1.0)
        expected = min(app.max_rate_bps,
                       max(app.min_rate_bps,
                           sender.estimated_rate_bps() * app.rate_headroom))
        assert app.current_target_bps() == pytest.approx(expected)

    def test_encoder_drops_when_transport_stalls(self, sim, stack):
        sender, receiver, app = stack
        sender.transmit = lambda p: None
        sim.run(until=2.0)
        assert app.frames_dropped_at_encoder > 0
        # Dropped frames are not counted as sent.
        assert app.frames_sent < 50

    def test_stop(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=0.5)
        app.stop()
        before = app.frames_sent
        sim.run(until=1.0)
        assert app.frames_sent == before


class TestBulkApps:
    def test_bulk_sender_keeps_backlog(self, sim, flow):
        from repro.app.bulk import BulkSenderApp
        sender = TcpSender(sim, flow, CopaCca())
        sent = []
        sender.transmit = sent.append
        BulkSenderApp(sim, sender)
        sim.run(until=0.1)
        assert sender.unlimited
        assert len(sent) > 0

    def test_periodic_bulk_toggles(self, sim, flow):
        from repro.app.bulk import PeriodicBulkApp
        sender = TcpSender(sim, flow, CopaCca())
        sender.transmit = lambda p: None
        app = PeriodicBulkApp(sim, sender, period=1.0)
        assert sender.unlimited
        sim.run(until=1.5)
        assert not sender.unlimited
        sim.run(until=2.5)
        assert sender.unlimited
        app.stop()
        assert not sender.unlimited

    def test_invalid_period(self, sim, flow):
        from repro.app.bulk import PeriodicBulkApp
        sender = TcpSender(sim, flow, CopaCca())
        with pytest.raises(ValueError):
            PeriodicBulkApp(sim, sender, period=0.0)
