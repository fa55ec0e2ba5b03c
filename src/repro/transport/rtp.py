"""RTP media transport with TWCC (transport-wide CC) RTCP feedback.

The in-band-feedback protocol family of the paper (Table 2, §5.3):

* every RTP data packet carries a transport-wide sequence number
  (``twcc_seq``) readable even under SRTP encryption;
* the receiver records per-packet arrival times and periodically packs
  them into a TWCC feedback packet sent back to the sender;
* the sender matches reports against its send history and feeds the
  (send_time, recv_time) pairs to the GCC controller.

The Zhuge in-band Feedback Updater impersonates the receiver: it builds
TWCC packets at the AP from *predicted* arrival times and drops the
client's own TWCC packets (§5.3 step 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cca.base import FeedbackPacketReport, RateCca
from repro.metrics.recorder import RateRecorder, RttRecorder
from repro.net.packet import (FiveTuple, Packet, PacketKind, RTCP_SIZE,
                              RTP_PAYLOAD_SIZE)
from repro.sim.engine import Event, SimulationError, Simulator, Timer

TransmitCallback = Callable[[Packet], None]


@dataclass
class TwccFeedback:
    """Payload of a TWCC feedback packet: (twcc_seq -> arrival time)."""

    base_seq: int
    arrivals: dict[int, float] = field(default_factory=dict)
    constructed_at: float = 0.0
    constructed_by: str = "receiver"


class RtpSender:
    """RTP sending endpoint driving a rate-based CCA.

    The application (video encoder) calls :meth:`send_packet` for each
    RTP packet; pacing and bitrate choice live in the application/pacer,
    which reads ``cca.target_bps``.
    """

    def __init__(self, sim: Simulator, flow: FiveTuple, cca: RateCca,
                 history_window: float = 2.0):
        self.sim = sim
        self.flow = flow
        self.cca = cca
        self.history_window = history_window
        self.transmit: Optional[TransmitCallback] = None

        self._twcc_seq = 0
        # seq -> (sent_at, size, headers); headers kept so NACKed media
        # packets can be retransmitted with their frame metadata.
        self._history: dict[int, tuple[float, int, dict]] = {}
        self._oldest_seq = 0  # seqs below this have been evicted
        # Report frontier: every history entry below it has been handed
        # to the CCA (received, or lost because a later seq arrived).
        self._next_unreported = 0
        self._retransmitted: set[int] = set()
        self.rtt_recorder = RttRecorder()
        self.rate_recorder = RateRecorder()
        self.packets_sent = 0
        self.feedback_received = 0
        self.nacks_received = 0
        self.retransmissions = 0

    def send_packet(self, size: int = RTP_PAYLOAD_SIZE,
                    headers: Optional[dict] = None) -> Packet:
        """Emit one RTP packet stamped with the next TWCC sequence number.

        ``headers`` is only read: the packet gets a copy (middleboxes
        write to it), the history keeps the caller's, possibly shared.
        """
        now = self.sim._now
        seq = self._twcc_seq
        headers = headers or {}
        packet = Packet(self.flow, size, PacketKind.DATA, seq=seq,
                        sent_at=now, headers={**headers, "twcc_seq": seq})
        self._history[seq] = (now, size, headers)
        self._twcc_seq = seq + 1
        self.packets_sent += 1
        self._trim_history()
        if self.transmit is not None:
            self.transmit(packet)
        return packet

    def _trim_history(self) -> None:
        # Seqs are emitted in send-time order, so evict from the front.
        horizon = self.sim.now - self.history_window
        while self._oldest_seq < self._twcc_seq:
            entry = self._history.get(self._oldest_seq)
            if entry is not None and entry[0] >= horizon:
                break
            self._history.pop(self._oldest_seq, None)
            self._retransmitted.discard(self._oldest_seq)
            self._oldest_seq += 1

    def on_feedback(self, packet: Packet) -> None:
        """Process an incoming TWCC feedback packet."""
        feedback: TwccFeedback | None = packet.headers.get("twcc_feedback")
        if feedback is None:
            return
        self.feedback_received += 1
        arrivals = feedback.arrivals
        # Only [frontier, highest reported seq] can hold news; the clamp
        # to the highest *sent* seq keeps a feedback naming never-sent
        # seqs from looping over them or hiding packets sent later.
        last = min(max(arrivals, default=-1), self._twcc_seq - 1)
        now = self.sim.now
        reports = []
        for seq in range(max(self._next_unreported, self._oldest_seq),
                         last + 1):
            entry = self._history.get(seq)
            if entry is None:
                continue
            sent, size, _ = entry
            recv = arrivals.get(seq)
            # Absent below the highest reported seq => treat as lost.
            reports.append(FeedbackPacketReport(seq, size, sent, recv))
            if recv is not None:
                self.rtt_recorder.record(now, now - sent)
        if last >= self._next_unreported:
            self._next_unreported = last + 1
        if reports:
            self.cca.on_feedback(now, reports)
            self.rate_recorder.record(now, self.cca.target_bps)

    def on_nack(self, packet: Packet) -> None:
        """Retransmit media the receiver reports missing (RFC 4585 NACK).

        The retransmission is a fresh RTP packet (new transport-wide
        sequence number, as with WebRTC's RTX) carrying the original
        frame metadata, so the receiver can complete the frame.
        """
        seqs = packet.headers.get("nack_seqs") or ()
        self.nacks_received += 1
        for seq in seqs:
            entry = self._history.get(seq)
            if entry is None or seq in self._retransmitted:
                continue
            _, size, headers = entry
            self._retransmitted.add(seq)
            self.retransmissions += 1
            self.send_packet(size, headers)


class RtpReceiver:
    """RTP receiving endpoint: records arrivals, emits TWCC feedback.

    Feedback is sent every ``feedback_interval`` (WebRTC sends roughly
    once per frame / per RTT). Data packets are also handed to an
    application callback for frame reassembly.
    """

    def __init__(self, sim: Simulator, flow: FiveTuple,
                 feedback_interval: float = 0.040,
                 feedback_size: int = RTCP_SIZE,
                 nack_enabled: bool = True,
                 nack_delay: float = 0.015,
                 nack_retries: int = 3):
        self.sim = sim
        self.flow = flow
        self.feedback_interval = feedback_interval
        self.feedback_size = feedback_size
        self.nack_enabled = nack_enabled
        self.nack_delay = nack_delay
        self.nack_retries = nack_retries
        self.transmit: Optional[TransmitCallback] = None
        self.on_media: Optional[Callable[[Packet], None]] = None

        self._pending: dict[int, float] = {}
        self._base_seq = 0
        self._highest_seq = -1
        self._missing: dict[int, tuple[float, int]] = {}  # seq -> (since, tries)
        self.packets_received = 0
        self.feedback_sent = 0
        self.nacks_sent = 0
        self._timer = Timer(sim, feedback_interval, self._emit_feedback)
        if not nack_delay > 0:
            raise SimulationError(f"nack_delay must be positive: {nack_delay}")
        self._nack_next = sim.now + nack_delay
        self._nack_event: Optional[Event] = None

    def on_data(self, packet: Packet) -> None:
        self.packets_received += 1
        twcc_seq = packet.headers.get("twcc_seq")
        if twcc_seq is not None:
            self._pending[twcc_seq] = self.sim.now
            self._missing.pop(twcc_seq, None)
            if self.nack_enabled and twcc_seq > self._highest_seq + 1:
                for gap_seq in range(self._highest_seq + 1, twcc_seq):
                    self._missing[gap_seq] = (self.sim.now, 0)
                self._arm_nack()
            self._highest_seq = max(self._highest_seq, twcc_seq)
        if self.on_media is not None:
            self.on_media(packet)

    def _arm_nack(self) -> None:
        """Plant the next NACK tick on the first instant after now of
        the accumulated ``t + nack_delay`` grid (DESIGN.md §13)."""
        if self._nack_event is not None or self._timer.stopped:
            return
        grid = self._nack_next
        while grid <= self.sim._now:
            grid += self.nack_delay
        self._nack_next = grid
        self._nack_event = self.sim.call_at(grid, self._nack_tick)

    def _nack_tick(self) -> None:
        """Request retransmission of gaps that persisted past nack_delay;
        the next tick is planted only while a gap stays open."""
        now = self.sim.now
        self._nack_event = None
        self._nack_next = now + self.nack_delay
        to_request: list[int] = []
        for seq, (since, tries) in list(self._missing.items()):
            if now - since < self.nack_delay:
                continue
            if tries >= self.nack_retries:
                del self._missing[seq]  # give up; the frame will be skipped
                continue
            to_request.append(seq)
            self._missing[seq] = (now, tries + 1)
        if to_request and self.transmit is not None:
            nack = Packet(self.flow.reversed(), self.feedback_size,
                          PacketKind.RTCP_OTHER, sent_at=self.sim.now)
            nack.headers["nack_seqs"] = to_request
            self.nacks_sent += 1
            self.transmit(nack)
        if self._missing:
            self._arm_nack()

    def _emit_feedback(self) -> None:
        if not self._pending:
            return
        feedback = TwccFeedback(base_seq=self._base_seq,
                                arrivals=self._pending,
                                constructed_at=self.sim.now,
                                constructed_by="receiver")
        self._base_seq = max(self._pending) + 1
        self._pending = {}  # the feedback owns the old dict now
        packet = Packet(self.flow.reversed(), self.feedback_size,
                        PacketKind.RTCP_TWCC, sent_at=self.sim.now)
        packet.headers["twcc_feedback"] = feedback
        self.feedback_sent += 1
        if self.transmit is not None:
            self.transmit(packet)

    def stop(self) -> None:
        self._timer.stop()
        if self._nack_event is not None:
            self._nack_event.cancel()
