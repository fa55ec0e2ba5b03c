"""Video application model (encoder, packetizer, receiver).

The paper's workload: 1080p 24 fps video at ~2 Mbps average bitrate,
sent burstily frame-by-frame (§3.1: "senders tend to burstily send
packets of the same frame out"). The encoder adapts its per-frame size
to the CCA's current rate estimate. The receiver reassembles frames:
a frame decodes only when all of its packets have arrived *and* every
previous frame has been decoded (the frame-delay definition of §7.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.metrics.recorder import FrameRecorder
from repro.net.packet import Packet, RTP_PAYLOAD_SIZE
from repro.sim.engine import Simulator, Timer
from repro.sim.random import DeterministicRandom
from repro.transport.rtp import RtpReceiver, RtpSender
from repro.transport.tcp import TcpReceiver, TcpSender


@dataclass
class VideoFrame:
    """One encoded frame."""

    frame_id: int
    encoded_at: float
    size_bytes: int
    keyframe: bool = False
    packet_count: int = 0
    arrived_packets: int = 0
    decoded_at: Optional[float] = None


class VideoEncoder:
    """Rate-adaptive frame generator.

    Each tick (1/fps) it produces a frame sized to the current target
    bitrate, with lognormal size variation and periodically larger
    keyframes — giving the bursty arrivals the Fortune Teller must cope
    with.
    """

    def __init__(self, fps: float = 24.0, rng: Optional[DeterministicRandom] = None,
                 keyframe_interval: int = 48, keyframe_scale: float = 3.0,
                 size_sigma: float = 0.25, min_frame_bytes: int = 400):
        if fps <= 0:
            raise ValueError(f"fps must be positive: {fps}")
        self.fps = fps
        self.rng = rng or DeterministicRandom(0)
        self.keyframe_interval = keyframe_interval
        self.keyframe_scale = keyframe_scale
        self.size_sigma = size_sigma
        self.min_frame_bytes = min_frame_bytes
        self._frame_id = 0

    def next_frame(self, now: float, target_bps: float) -> VideoFrame:
        """Encode the next frame against ``target_bps``."""
        base_bytes = target_bps / 8.0 / self.fps
        keyframe = (self._frame_id % self.keyframe_interval == 0)
        scale = self.keyframe_scale if keyframe else 1.0
        # Keep the average at base_bytes: non-key frames shrink slightly.
        if self.keyframe_interval > 1:
            extra = (self.keyframe_scale - 1.0) / self.keyframe_interval
            if not keyframe:
                scale = max(0.1, 1.0 - extra)
        noise = self.rng.lognormal(0.0, self.size_sigma)
        noise /= math.exp(self.size_sigma ** 2 / 2)  # unit-mean correction
        size = max(self.min_frame_bytes, int(base_bytes * scale * noise))
        frame = VideoFrame(self._frame_id, now, size, keyframe)
        self._frame_id += 1
        return frame


class _FrameTracker:
    """Receiver-side frame completion and decode-dependency logic."""

    def __init__(self) -> None:
        self.frames: dict[int, VideoFrame] = {}
        self.recorder = FrameRecorder()
        self._next_to_decode = 0

    def register(self, frame_id: int, encoded_at: float,
                 packet_count: int) -> None:
        if frame_id not in self.frames:
            self.frames[frame_id] = VideoFrame(frame_id, encoded_at, 0,
                                               packet_count=packet_count)

    def on_packet(self, frame_id: int, encoded_at: float,
                  packet_count: int, now: float) -> None:
        self.register(frame_id, encoded_at, packet_count)
        frame = self.frames[frame_id]
        frame.arrived_packets += 1
        self._try_decode(now)

    def _try_decode(self, now: float) -> None:
        while True:
            frame = self.frames.get(self._next_to_decode)
            if frame is None or frame.arrived_packets < frame.packet_count:
                return
            frame.decoded_at = now
            self.recorder.record(now, now - frame.encoded_at)
            del self.frames[self._next_to_decode]
            self._next_to_decode += 1

    def skip_missing_before(self, frame_id: int, now: float) -> None:
        """Give up frames older than ``frame_id`` (loss concealment)."""
        while self._next_to_decode < frame_id:
            self.frames.pop(self._next_to_decode, None)
            self._next_to_decode += 1
        self._try_decode(now)


class RtpVideoApp:
    """Video over RTP: encoder + per-frame burst packetizer + receiver.

    Binds an :class:`RtpSender`/:class:`RtpReceiver` pair. Frames are
    packetized into RTP packets and sent as a tight burst (with a small
    inter-packet pacing gap) at encode time. Frames older than
    ``max_decode_lag`` with missing packets are skipped, so one lost
    packet stalls the stream only briefly (mirroring NACK/PLI recovery).
    """

    def __init__(self, sim: Simulator, sender: RtpSender,
                 receiver: RtpReceiver, encoder: VideoEncoder,
                 burst_gap: float = 0.0005, max_decode_lag: float = 0.6,
                 paced: bool = False):
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.encoder = encoder
        self.burst_gap = burst_gap
        self.max_decode_lag = max_decode_lag
        # §3.1: real senders burst a frame's packets out together to
        # minimize latency. ``paced=True`` instead spreads them across
        # the frame interval (a WebRTC pacer at ~1x rate) — used by the
        # burstiness ablation to show what bursts do to the estimators.
        self.paced = paced
        self.tracker = _FrameTracker()
        self.frames_sent = 0
        receiver.on_media = self._on_media
        # A frame's packets after its head ride one engine run: one heap
        # sentinel, not one event per packet, at the same ``(time, seq)``
        # keys.
        self._burst = sim.timed_run(lambda item: sender.send_packet(*item))
        self._burst_end = 0.0  # latest time pushed onto the run
        self._timer = Timer(sim, 1.0 / encoder.fps, self._encode_tick,
                            first_delay=0.0)
        self._gc_timer = Timer(sim, 0.1, self._gc_tick)

    @property
    def frame_recorder(self) -> FrameRecorder:
        return self.tracker.recorder

    def _encode_tick(self) -> None:
        now = self.sim.now
        frame = self.encoder.next_frame(now, self.sender.cca.target_bps)
        packet_count = max(1, math.ceil(frame.size_bytes / RTP_PAYLOAD_SIZE))
        frame.packet_count = packet_count
        self.frames_sent += 1
        remaining = frame.size_bytes
        if self.paced:
            # Spread the frame across ~80% of the frame interval.
            gap = 0.8 / (self.encoder.fps * packet_count)
        else:
            gap = self.burst_gap
        # One dict per frame; ``send_packet`` copies it into each packet.
        headers = {
            "frame_id": frame.frame_id,
            "frame_encoded_at": frame.encoded_at,
            "frame_packets": packet_count,
        }
        # The head goes out at ``now``: a post, which runs when this
        # tick's dispatch returns unless something older waits at ``now``.
        head = min(RTP_PAYLOAD_SIZE, max(1, remaining))
        remaining -= head
        self.sim.post(lambda: self.sender.send_packet(head, headers))
        for index in range(1, packet_count):
            size = min(RTP_PAYLOAD_SIZE, max(1, remaining))
            remaining -= size
            at = now + index * gap
            if at >= self._burst_end:
                self._burst.push(at, (size, headers))
                self._burst_end = at
            else:
                # The previous burst outlasted the frame interval, and
                # a run only takes non-decreasing times.
                self.sim.schedule(index * gap, lambda s=size, h=headers:
                                  self.sender.send_packet(s, h))

    def _on_media(self, packet: Packet) -> None:
        frame_id = packet.headers.get("frame_id")
        if frame_id is None:
            return
        self.tracker.on_packet(frame_id,
                               packet.headers["frame_encoded_at"],
                               packet.headers["frame_packets"],
                               self.sim.now)

    def _gc_tick(self) -> None:
        """Skip frames that will never complete (lost packets)."""
        stale_before = None
        for frame_id, frame in sorted(self.tracker.frames.items()):
            if self.sim.now - frame.encoded_at > self.max_decode_lag:
                stale_before = frame_id + 1
            else:
                break
        if stale_before is not None:
            self.tracker.skip_missing_before(stale_before, self.sim.now)

    def stop(self) -> None:
        self._timer.stop()
        self._gc_timer.stop()
        self.receiver.stop()


class TcpVideoApp:
    """Video over a TCP-like stream (cloud-gaming / remote-desktop style).

    The encoder picks its bitrate from the transport's ``cwnd/srtt``
    estimate (with headroom), writes frame bytes into the stream, and
    the receiver decodes a frame when its last byte is delivered
    in-order. TCP's reliability means frames never get skipped; they
    arrive late instead — which is what the frame-delay tail measures.
    """

    def __init__(self, sim: Simulator, sender: TcpSender,
                 receiver: TcpReceiver, encoder: VideoEncoder,
                 rate_headroom: float = 0.85,
                 max_rate_bps: float = 20e6, min_rate_bps: float = 150e3):
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.encoder = encoder
        self.rate_headroom = rate_headroom
        self.max_rate_bps = max_rate_bps
        self.min_rate_bps = min_rate_bps
        self.tracker = _FrameTracker()
        self.frames_sent = 0
        self.frames_dropped_at_encoder = 0
        receiver.on_deliver = self._on_deliver
        self._timer = Timer(sim, 1.0 / encoder.fps, self._encode_tick,
                            first_delay=0.0)

    @property
    def frame_recorder(self) -> FrameRecorder:
        return self.tracker.recorder

    def current_target_bps(self) -> float:
        rate = self.sender.estimated_rate_bps() * self.rate_headroom
        return min(self.max_rate_bps, max(self.min_rate_bps, rate))

    def _encode_tick(self) -> None:
        # Encoder-side frame dropping: if the send buffer already holds
        # more than ~0.5 s of video, encoding another frame only adds
        # latency; real encoders skip instead.
        target = self.current_target_bps()
        if self.sender.buffered_bytes * 8 > target * 0.5:
            self.frames_dropped_at_encoder += 1
            return
        frame = self.encoder.next_frame(self.sim.now, target)
        meta = {
            "frame_id": frame.frame_id,
            "frame_encoded_at": frame.encoded_at,
        }
        self.frames_sent += 1
        self.sender.write(frame.size_bytes, meta)

    def _on_deliver(self, seq: int, end_seq: int, meta: dict,
                    now: float) -> None:
        frame_id = meta.get("frame_id")
        if frame_id is None:
            return
        # TCP delivery is in-order, so when the final segment of a frame's
        # write is delivered, the entire frame (and every previous frame)
        # has been delivered — the frame decodes now.
        if meta.get("last_of_write"):
            self.tracker.on_packet(frame_id, meta["frame_encoded_at"], 1, now)

    def stop(self) -> None:
        self._timer.stop()
