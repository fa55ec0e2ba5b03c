"""Unit tests for the video-over-TCP application."""

import pytest

from repro.app.video import (MIN_RATE_BPS, RATE_HEADROOM, TcpVideoApp,
                             VideoEncoder)
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
                       max(MIN_RATE_BPS,
                           sender.estimated_rate_bps() * RATE_HEADROOM))
        assert app.current_target_bps() == pytest.approx(expected)

    def test_encoder_drops_when_transport_stalls(self, sim, stack):
        sender, receiver, app = stack
        sender.transmit = lambda p: None
        sim.run(until=2.0)
        assert app.frames_dropped_at_encoder > 0
        # Dropped frames are not counted as sent.
        assert app.frames_sent < 50

    def test_frame_whose_tail_is_retransmitted_still_decodes(self, sim,
                                                              stack):
        """The first frame's last segment is lost once: its
        retransmission carries the frame's meta, so the frame (and every
        frame queued behind it in the stream) decodes. A retransmission
        that dropped the meta left the decoder waiting on frame 0 for
        the rest of the run."""
        sender, receiver, app = stack
        lost = []

        def down(packet):
            if packet.headers.get("last_of_write") and not lost:
                lost.append(packet.seq)
                return
            sim.schedule(0.008, lambda p=packet: receiver.on_data(p))

        sender.transmit = down
        receiver.transmit = (
            lambda p: sim.schedule(0.008, lambda pp=p: sender.on_ack(pp)))
        sim.run(until=2.0)
        assert lost and sender.retransmissions >= 1
        assert app.frame_recorder.count >= 40
        assert app.tracker.frames == {}

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
