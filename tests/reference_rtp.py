"""Oracles for the RTC path: full-scan feedback, per-packet send events.

The bodies below are earlier implementations, kept verbatim.

Feedback (PR 15): ``RtpSender.on_feedback`` ``sorted()``s and walks the
whole send history against a ``_reported`` set, GCC re-scans its
receive window with a ``max`` and a ``sum`` generator on every
feedback, and the trendline slope makes four generator passes over its
samples.  They are slow on purpose and exist only so
``tests/test_properties_rtc_feedback.py`` can require the
O(newly reported) versions in ``src/repro`` to hand the CCA exactly
the same reports and land on exactly the same floats.

Send path (PR 16): ``RtpVideoApp._encode_tick`` schedules one classic
event, one lambda and one headers dict per packet, and
``RtpSender.send_packet`` copies the headers twice.
``tests/test_properties_rtp_send.py`` requires the live version (the
head posted, the rest on one ``TimedRun``) to emit the same packets at
the same instants, in the same order against every other entry.

NACK timer: ``RtpReceiver`` ran its NACK check from a ``Timer`` that
ticked every ``NACK_DELAY`` whether or not a gap was open.
``tests/test_properties_rtp_nack.py`` requires the wake-up that is
planted only while a gap is open to send the same NACKs at the same
instants and to leave the same ``_missing`` behind.  Both of the
reference receiver's timers are the one-event-per-tick ``Timer`` of
``tests/reference_engine.py``, so its coincident ticks never share a
dispatch and its event count stays the per-tick one.
"""

import math
from typing import Callable, Optional

from repro.app.video import BURST_GAP, RtpVideoApp
from repro.cca.base import FeedbackPacketReport
from repro.cca.gcc import GccController, TrendlineEstimator
from repro.net.packet import (FiveTuple, Packet, PacketKind, RTCP_SIZE,
                              RTP_PAYLOAD_SIZE)
from repro.sim.engine import Simulator
from repro.transport.rtp import (FEEDBACK_INTERVAL, HISTORY_WINDOW,
                                 NACK_DELAY, NACK_RETRIES, RtpReceiver,
                                 RtpSender, TransmitCallback, TwccFeedback)
from tests.reference_engine import Timer


class ReferenceRtpSender(RtpSender):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reported: set[int] = set()

    def send_packet(self, size: int = RTP_PAYLOAD_SIZE,
                    headers: Optional[dict] = None) -> Packet:
        """Emit one RTP packet stamped with the next TWCC sequence number."""
        packet = Packet(self.flow, size, PacketKind.DATA,
                        seq=self._twcc_seq, sent_at=self.sim.now,
                        headers=dict(headers or {}))
        packet.headers["twcc_seq"] = self._twcc_seq
        self._history[self._twcc_seq] = (self.sim.now, size,
                                         dict(headers or {}))
        self._twcc_seq += 1
        self.packets_sent += 1
        self._trim_history()
        if self.transmit is not None:
            self.transmit(packet)
        return packet

    def _trim_history(self) -> None:
        # Seqs are emitted in send-time order, so evict from the front.
        horizon = self.sim.now - HISTORY_WINDOW
        while self._oldest_seq < self._twcc_seq:
            entry = self._history.get(self._oldest_seq)
            if entry is not None and entry[0] >= horizon:
                break
            self._history.pop(self._oldest_seq, None)
            self._reported.discard(self._oldest_seq)
            self._retransmitted.discard(self._oldest_seq)
            self._oldest_seq += 1

    def on_feedback(self, packet: Packet) -> None:
        """Process an incoming TWCC feedback packet."""
        feedback: TwccFeedback | None = packet.headers.get("twcc_feedback")
        if feedback is None:
            return
        self.feedback_received += 1
        reports = []
        max_reported_seq = max(feedback.arrivals, default=-1)
        for seq, (sent, size, _) in sorted(self._history.items()):
            if seq in self._reported:
                continue
            if seq in feedback.arrivals:
                recv = feedback.arrivals[seq]
                reports.append(FeedbackPacketReport(seq, size, sent, recv))
                self._reported.add(seq)
                self.rtt_recorder.record(self.sim.now, self.sim.now - sent)
            elif seq < max_reported_seq:
                # Skipped by the feedback window => treat as lost.
                reports.append(FeedbackPacketReport(seq, size, sent, None))
                self._reported.add(seq)
        if reports:
            self.cca.on_feedback(self.sim.now, reports)
            self.rate_recorder.record(self.sim.now, self.cca.target_bps)


class ReferenceRtpVideoApp(RtpVideoApp):
    def _encode_tick(self) -> None:
        frame = self.encoder.next_frame(self.sim.now, self.sender.cca.target_bps)
        packet_count = max(1, math.ceil(frame.size_bytes / RTP_PAYLOAD_SIZE))
        frame.packet_count = packet_count
        self.frames_sent += 1
        remaining = frame.size_bytes
        if self.paced:
            # Spread the frame across ~80% of the frame interval.
            gap = 0.8 / (self.encoder.fps * packet_count)
        else:
            gap = BURST_GAP
        for index in range(packet_count):
            size = min(RTP_PAYLOAD_SIZE, max(1, remaining))
            remaining -= size
            headers = {
                "frame_id": frame.frame_id,
                "frame_encoded_at": frame.encoded_at,
                "frame_packets": packet_count,
            }
            self.sim.schedule(index * gap, lambda s=size, h=headers:
                              self.sender.send_packet(s, h))


class ReferenceRtpReceiver(RtpReceiver):
    def __init__(self, sim: Simulator, flow: FiveTuple):
        self.sim = sim
        self.flow = flow
        self.transmit: Optional[TransmitCallback] = None
        self.on_media: Optional[Callable[[Packet], None]] = None

        self._pending: dict[int, float] = {}
        self._base_seq = 0
        self._highest_seq = -1
        self._missing: dict[int, tuple[float, int]] = {}  # seq -> (since, tries)
        self.packets_received = 0
        self.feedback_sent = 0
        self.nacks_sent = 0
        self._timer = Timer(sim, FEEDBACK_INTERVAL, self._emit_feedback)
        self._nack_timer = Timer(sim, NACK_DELAY, self._nack_tick)

    def on_data(self, packet: Packet) -> None:
        self.packets_received += 1
        twcc_seq = packet.headers.get("twcc_seq")
        if twcc_seq is not None:
            self._pending[twcc_seq] = self.sim.now
            self._missing.pop(twcc_seq, None)
            if twcc_seq > self._highest_seq + 1:
                for gap_seq in range(self._highest_seq + 1, twcc_seq):
                    self._missing[gap_seq] = (self.sim.now, 0)
            self._highest_seq = max(self._highest_seq, twcc_seq)
        if self.on_media is not None:
            self.on_media(packet)

    def _nack_tick(self) -> None:
        """Request retransmission of gaps that persisted past NACK_DELAY."""
        if not self._missing:
            return
        now = self.sim.now
        to_request: list[int] = []
        for seq, (since, tries) in list(self._missing.items()):
            if now - since < NACK_DELAY:
                continue
            if tries >= NACK_RETRIES:
                del self._missing[seq]  # give up; the frame will be skipped
                continue
            to_request.append(seq)
            self._missing[seq] = (now, tries + 1)
        if not to_request or self.transmit is None:
            return
        nack = Packet(self.flow.reversed(), RTCP_SIZE,
                      PacketKind.RTCP_OTHER, sent_at=self.sim.now)
        nack.headers["nack_seqs"] = to_request
        self.nacks_sent += 1
        self.transmit(nack)

    def stop(self) -> None:
        self._timer.stop()
        self._nack_timer.stop()


class ReferenceTrendlineEstimator(TrendlineEstimator):
    def _slope(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        n = len(self._samples)
        mean_x = sum(x for x, _ in self._samples) / n
        mean_y = sum(y for _, y in self._samples) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in self._samples)
        den = sum((x - mean_x) ** 2 for x, _ in self._samples)
        return num / den if den > 1e-12 else 0.0


class ReferenceGccController(GccController):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trendline = ReferenceTrendlineEstimator()

    def _update_receive_rate(self, now: float,
                             received: list[FeedbackPacketReport]) -> None:
        for report in received:
            self._recv_window.append((report.recv_time, report.size))
        if not self._recv_window:
            return
        newest = max(t for t, _ in self._recv_window)
        horizon = newest - self.RECV_RATE_WINDOW
        while self._recv_window and self._recv_window[0][0] < horizon:
            self._recv_window.popleft()
        if self._recv_window:
            total_bits = sum(size for _, size in self._recv_window) * 8
            self._last_recv_rate = total_bits / self.RECV_RATE_WINDOW
