"""Tests for the video application models."""

import pytest

from repro.app.video import VideoEncoder, _FrameTracker
from repro.sim.random import DeterministicRandom


class TestVideoEncoder:
    def test_average_frame_size_tracks_bitrate(self):
        encoder = VideoEncoder(fps=25, rng=DeterministicRandom(1))
        target = 2e6
        sizes = [encoder.next_frame(i / 25, target).size_bytes
                 for i in range(500)]
        mean_size = sum(sizes) / len(sizes)
        expected = target / 8 / 25
        assert mean_size == pytest.approx(expected, rel=0.15)

    def test_keyframes_periodic_and_larger(self):
        encoder = VideoEncoder(fps=25, rng=DeterministicRandom(1),
                               keyframe_interval=10, keyframe_scale=3.0,
                               size_sigma=0.0)
        frames = [encoder.next_frame(i / 25, 2e6) for i in range(20)]
        assert frames[0].keyframe and frames[10].keyframe
        assert not frames[1].keyframe
        assert frames[0].size_bytes > 2 * frames[1].size_bytes

    def test_frame_ids_increment(self):
        encoder = VideoEncoder(rng=DeterministicRandom(1))
        a = encoder.next_frame(0.0, 1e6)
        b = encoder.next_frame(0.04, 1e6)
        assert b.frame_id == a.frame_id + 1

    def test_minimum_frame_size(self):
        encoder = VideoEncoder(rng=DeterministicRandom(1),
                               min_frame_bytes=400)
        frame = encoder.next_frame(0.0, 1_000.0)  # absurdly low rate
        assert frame.size_bytes >= 400

    def test_invalid_fps(self):
        with pytest.raises(ValueError):
            VideoEncoder(fps=0)


class TestFrameTracker:
    def test_frame_decodes_when_all_packets_arrive(self):
        tracker = _FrameTracker()
        tracker.on_packet(0, 0.0, 3, 0.01)
        tracker.on_packet(0, 0.0, 3, 0.02)
        assert tracker.recorder.count == 0
        tracker.on_packet(0, 0.0, 3, 0.03)
        assert tracker.recorder.count == 1
        assert tracker.recorder.frame_delays[0] == pytest.approx(0.03)

    def test_decode_order_dependency(self):
        tracker = _FrameTracker()
        # Frame 1 complete before frame 0: must wait.
        tracker.on_packet(1, 0.04, 1, 0.05)
        assert tracker.recorder.count == 0
        tracker.on_packet(0, 0.0, 1, 0.06)
        assert tracker.recorder.count == 2
        # Frame 1 decoded at the same instant frame 0 unblocked it.
        assert list(tracker.recorder.frame_times) == [0.06, 0.06]

    def test_skip_missing_frames(self):
        tracker = _FrameTracker()
        tracker.on_packet(2, 0.08, 1, 0.1)
        tracker.skip_missing_before(2, 0.5)
        assert tracker.recorder.count == 1

    def test_skip_does_not_lose_complete_later_frames(self):
        tracker = _FrameTracker()
        tracker.on_packet(1, 0.04, 1, 0.05)
        tracker.on_packet(2, 0.08, 1, 0.09)
        tracker.skip_missing_before(1, 0.5)
        assert tracker.recorder.count == 2
