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
from repro.transport.quic import QuicReceiver, QuicSender
from repro.transport.rtp import RtpReceiver, RtpSender
from repro.transport.stream import StreamSender

#: Every ``KEYFRAME_INTERVAL``-th frame is a keyframe, ``KEYFRAME_SCALE``
#: times the average frame.
KEYFRAME_INTERVAL = 48
KEYFRAME_SCALE = 3.0
#: Sigma of the lognormal frame-size noise.
SIZE_SIGMA = 0.25
MIN_FRAME_BYTES = 400
#: Pacing gap between the packets of one RTP frame burst.
BURST_GAP = 0.0005
#: Age past which an incomplete RTP or QUIC frame is skipped.
MAX_DECODE_LAG = 0.6
#: A stream encoder targets this share of ``cwnd/srtt``, clamped to at
#: least ``MIN_RATE_BPS``.
RATE_HEADROOM = 0.85
MIN_RATE_BPS = 150e3


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

    def __init__(self, fps: float = 24.0, rng: Optional[DeterministicRandom] = None):
        if fps <= 0:
            raise ValueError(f"fps must be positive: {fps}")
        self.fps = fps
        self.rng = rng or DeterministicRandom(0)
        self._frame_id = 0

    def next_frame(self, now: float, target_bps: float) -> VideoFrame:
        """Encode the next frame against ``target_bps``."""
        base_bytes = target_bps / 8.0 / self.fps
        keyframe = (self._frame_id % KEYFRAME_INTERVAL == 0)
        # Keep the average at base_bytes: non-key frames shrink slightly.
        scale = (KEYFRAME_SCALE if keyframe else
                 max(0.1, 1.0 - (KEYFRAME_SCALE - 1.0) / KEYFRAME_INTERVAL))
        noise = self.rng.lognormal(0.0, SIZE_SIGMA)
        noise /= math.exp(SIZE_SIGMA ** 2 / 2)  # unit-mean correction
        size = max(MIN_FRAME_BYTES, int(base_bytes * scale * noise))
        frame = VideoFrame(self._frame_id, now, size, keyframe)
        self._frame_id += 1
        return frame


class _FrameTracker:
    """Receiver-side frame completion and decode-dependency logic."""

    def __init__(self, sim: Optional[Simulator] = None,
                 max_decode_lag: float = math.inf) -> None:
        self.sim = sim
        self.max_decode_lag = max_decode_lag
        self.frames: dict[int, VideoFrame] = {}
        self.recorder = FrameRecorder()
        self._next_to_decode = 0

    def on_packet(self, frame_id: int, encoded_at: float,
                  packet_count: int, now: float) -> None:
        frame = self.frames.get(frame_id)
        if frame is None:
            frame = self.frames[frame_id] = VideoFrame(
                frame_id, encoded_at, 0, packet_count=packet_count)
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

    def skip_stale(self) -> None:
        """Give up every frame up to the newest one encoded more than
        ``max_decode_lag`` ago: it will never complete (lost packets)."""
        now = self.sim.now
        stale_before = None
        for frame_id, frame in sorted(self.frames.items()):
            if now - frame.encoded_at > self.max_decode_lag:
                stale_before = frame_id + 1
            else:
                break
        if stale_before is not None:
            self.skip_missing_before(stale_before, now)


class RtpVideoApp:
    """Video over RTP: encoder + per-frame burst packetizer + receiver.

    Binds an :class:`RtpSender`/:class:`RtpReceiver` pair. Frames are
    packetized into RTP packets and sent as a tight burst (with a small
    inter-packet pacing gap) at encode time. Frames older than
    ``MAX_DECODE_LAG`` with missing packets are skipped, so one lost
    packet stalls the stream only briefly (mirroring NACK/PLI recovery).
    """

    def __init__(self, sim: Simulator, sender: RtpSender,
                 receiver: RtpReceiver, encoder: VideoEncoder,
                 paced: bool = False):
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.encoder = encoder
        # §3.1: real senders burst a frame's packets out together to
        # minimize latency. ``paced=True`` instead spreads them across
        # the frame interval (a WebRTC pacer at ~1x rate) — used by the
        # burstiness ablation to show what bursts do to the estimators.
        self.paced = paced
        self.tracker = _FrameTracker(sim, MAX_DECODE_LAG)
        self.frame_recorder = self.tracker.recorder
        self.frames_sent = 0
        receiver.on_media = self._on_media
        # A frame's packets after its head ride one engine run: one heap
        # sentinel, not one event per packet, at the same ``(time, seq)``
        # keys.
        self._burst = sim.timed_run(lambda item: sender.send_packet(*item))
        self._burst_end = 0.0  # latest time pushed onto the run
        self._timer = Timer(sim, 1.0 / encoder.fps, self._encode_tick,
                            first_delay=0.0)
        self._gc_timer = Timer(sim, 0.1, self.tracker.skip_stale)

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
            gap = BURST_GAP
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

    def stop(self) -> None:
        self._timer.stop()
        self._gc_timer.stop()
        self.receiver.stop()


class StreamVideoApp:
    """Video over a reliable stream sender (TCP or QUIC).

    The encoder picks its bitrate from the transport's ``cwnd/srtt``
    estimate (with headroom) and writes each frame into the stream as
    one write. Subclasses decide when a frame has arrived.
    """

    #: Whether each frame's meta carries its packet count (a receiver
    #: that sees packets out of order counts them).
    counts_packets = False
    #: Age past which an incomplete frame is skipped (never, by default).
    max_decode_lag = math.inf

    def __init__(self, sim: Simulator, sender: StreamSender, receiver,
                 encoder: VideoEncoder, max_rate_bps: float = 20e6):
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.encoder = encoder
        self.max_rate_bps = max_rate_bps
        self.tracker = _FrameTracker(sim, self.max_decode_lag)
        self.frame_recorder = self.tracker.recorder
        self.frames_sent = 0
        self.frames_dropped_at_encoder = 0
        receiver.on_deliver = self._on_deliver
        self._timer = Timer(sim, 1.0 / encoder.fps, self._encode_tick,
                            first_delay=0.0)

    def current_target_bps(self) -> float:
        rate = self.sender.estimated_rate_bps() * RATE_HEADROOM
        return min(self.max_rate_bps, max(MIN_RATE_BPS, rate))

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
        if self.counts_packets:
            meta["frame_packets"] = max(
                1, math.ceil(frame.size_bytes / self.sender.mss))
        self.frames_sent += 1
        self.sender.write(frame.size_bytes, meta)

    def stop(self) -> None:
        self._timer.stop()


class TcpVideoApp(StreamVideoApp):
    """Video over a TCP-like byte stream (cloud-gaming / remote-desktop
    style): the receiver decodes a frame when its last byte is delivered
    in order. TCP's reliability means frames never get skipped; they
    arrive late instead — which is what the frame-delay tail measures.
    """

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


class QuicVideoApp(StreamVideoApp):
    """Video over a QUIC-style transport (Table 2's QUIC family).

    The transport splits each frame's write into packets with sealed
    payload descriptors, and delivers each packet as it arrives: a lost
    packet stalls only its own frame, not the stream. A frame decodes
    when all of its packets have arrived and every previous frame has
    decoded; one older than ``MAX_DECODE_LAG`` that cannot complete is
    skipped, as in :class:`RtpVideoApp`.
    """

    counts_packets = True
    max_decode_lag = MAX_DECODE_LAG

    def __init__(self, sim: Simulator, sender: QuicSender,
                 receiver: QuicReceiver, encoder: VideoEncoder,
                 max_rate_bps: float = 20e6):
        super().__init__(sim, sender, receiver, encoder, max_rate_bps)
        self._gc_timer = Timer(sim, 0.1, self.tracker.skip_stale)

    def _on_deliver(self, payload: dict, now: float) -> None:
        frame_id = payload.get("frame_id")
        if frame_id is None:
            return
        self.tracker.on_packet(frame_id, payload["frame_encoded_at"],
                               payload["frame_packets"], now)

    def stop(self) -> None:
        super().stop()
        self._gc_timer.stop()
