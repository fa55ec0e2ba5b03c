"""Unit tests for the video-over-QUIC application."""

import pytest

from repro.app.video import MIN_RATE_BPS, QuicVideoApp
from repro.app.video import VideoEncoder
from repro.cca.copa import CopaCca
from repro.sim.random import DeterministicRandom
from repro.transport.quic import QuicReceiver, QuicSender


@pytest.fixture
def stack(sim, flow):
    sender = QuicSender(sim, flow, CopaCca(mss=1200), mss=1200)
    receiver = QuicReceiver(sim, flow)
    encoder = VideoEncoder(fps=25, rng=DeterministicRandom(1))
    app = QuicVideoApp(sim, sender, receiver, encoder)
    return sender, receiver, app


def wire(sim, sender, receiver, delay=0.008):
    sender.transmit = (
        lambda p: sim.schedule(delay, lambda pp=p: receiver.on_data(pp)))
    receiver.transmit = (
        lambda p: sim.schedule(delay, lambda pp=p: sender.on_ack(pp)))


class TestQuicVideoApp:
    def test_frames_decode(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=2.0)
        # ~50 frames at 25 fps, minus pipeline tail.
        assert app.frame_recorder.count >= 40
        assert app.frames_sent >= 45

    def test_frame_delay_reasonable_on_clean_path(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=2.0)
        assert max(app.frame_recorder.frame_delays) < 0.3

    def test_encoder_skips_when_buffer_full(self, sim, stack):
        sender, receiver, app = stack
        sender.transmit = lambda p: None  # nothing ever acked
        sim.run(until=2.0)
        assert app.frames_dropped_at_encoder > 0

    def test_target_rate_clamped(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=1.0)
        assert MIN_RATE_BPS <= app.current_target_bps() <= app.max_rate_bps

    def test_stop_halts_encoding(self, sim, stack):
        sender, receiver, app = stack
        wire(sim, sender, receiver)
        sim.run(until=0.5)
        sent_before = app.frames_sent
        app.stop()
        sim.run(until=1.5)
        assert app.frames_sent == sent_before
