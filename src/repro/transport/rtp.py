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
from repro.metrics.recorder import RateRecorder
from repro.net.packet import (FiveTuple, Packet, PacketKind, RTCP_SIZE,
                              RTP_PAYLOAD_SIZE)
from repro.sim.engine import Event, Simulator, Timer

TransmitCallback = Callable[[Packet], None]

#: How long the sender keeps a sent packet for TWCC matching and NACKs.
HISTORY_WINDOW = 2.0
#: The receiver's TWCC report period: one report per 25 fps frame (§5.3).
FEEDBACK_INTERVAL = 0.040
#: How long a sequence gap stays open before it is NACKed, and the
#: NACK tick grid.
NACK_DELAY = 0.015
#: NACKs per missing packet before the receiver gives it up.
NACK_RETRIES = 3


@dataclass
class TwccFeedback:
    """Payload of a TWCC feedback packet: (twcc_seq -> arrival time)."""

    base_seq: int
    arrivals: dict[int, float] = field(default_factory=dict)
    constructed_at: float = 0.0
    constructed_by: str = "receiver"


def twcc_packet(flow: FiveTuple, base_seq: int, arrivals: dict[int, float],
                now: float, size: int, constructed_by: str) -> Packet:
    """The RTCP TWCC packet reporting ``arrivals`` (kept, not copied) of
    ``flow``'s media: measured by the receiver, predicted by Zhuge's
    in-band updater (§5.3), the same report either way."""
    packet = Packet(flow.reversed(), size, PacketKind.RTCP_TWCC, sent_at=now)
    packet.headers["twcc_feedback"] = TwccFeedback(base_seq, arrivals, now,
                                                   constructed_by)
    return packet


class RtpSender:
    """RTP sending endpoint driving a rate-based CCA.

    The application (video encoder) calls :meth:`send_packet` for each
    RTP packet; pacing and bitrate choice live in the application/pacer,
    which reads ``cca.target_bps``.
    """

    def __init__(self, sim: Simulator, flow: FiveTuple, cca: RateCca):
        self.sim = sim
        self.flow = flow
        self.cca = cca
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
        self.rate_recorder: Optional[RateRecorder] = None
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
        now = self.sim.now
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
        horizon = self.sim.now - HISTORY_WINDOW
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
        if last >= self._next_unreported:
            self._next_unreported = last + 1
        if reports:
            self.cca.on_feedback(now, reports)
            if self.rate_recorder is not None:
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

    Feedback is sent every ``FEEDBACK_INTERVAL`` (WebRTC sends roughly
    once per frame / per RTT). Data packets are also handed to an
    application callback for frame reassembly.
    """

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
        self._nack_next = sim.now + NACK_DELAY
        self._nack_event: Optional[Event] = None

    def on_data(self, packet: Packet) -> None:
        self.packets_received += 1
        twcc_seq = packet.headers.get("twcc_seq")
        if twcc_seq is not None:
            self._pending[twcc_seq] = self.sim.now
            self._missing.pop(twcc_seq, None)
            if twcc_seq > self._highest_seq + 1:
                for gap_seq in range(self._highest_seq + 1, twcc_seq):
                    self._missing[gap_seq] = (self.sim.now, 0)
                self._arm_nack()
            self._highest_seq = max(self._highest_seq, twcc_seq)
        if self.on_media is not None:
            self.on_media(packet)

    def _arm_nack(self) -> None:
        """Plant the next NACK tick on the first instant after now of
        the accumulated ``t + NACK_DELAY`` grid (DESIGN.md §13)."""
        if self._nack_event is not None or self._timer.stopped:
            return
        grid = self._nack_next
        while grid <= self.sim.now:
            grid += NACK_DELAY
        self._nack_next = grid
        self._nack_event = self.sim.call_at(grid, self._nack_tick)

    def _nack_tick(self) -> None:
        """Request retransmission of gaps that persisted past NACK_DELAY;
        the next tick is planted only while a gap stays open."""
        now = self.sim.now
        self._nack_event = None
        self._nack_next = now + NACK_DELAY
        to_request: list[int] = []
        for seq, (since, tries) in list(self._missing.items()):
            if now - since < NACK_DELAY:
                continue
            if tries >= NACK_RETRIES:
                del self._missing[seq]  # give up; the frame will be skipped
                continue
            to_request.append(seq)
            self._missing[seq] = (now, tries + 1)
        if to_request and self.transmit is not None:
            nack = Packet(self.flow.reversed(), RTCP_SIZE,
                          PacketKind.RTCP_OTHER, sent_at=self.sim.now)
            nack.headers["nack_seqs"] = to_request
            self.nacks_sent += 1
            self.transmit(nack)
        if self._missing:
            self._arm_nack()

    def _emit_feedback(self) -> None:
        if not self._pending:
            return
        packet = twcc_packet(self.flow, self._base_seq, self._pending,
                             self.sim.now, RTCP_SIZE, "receiver")
        self._base_seq = max(self._pending) + 1
        self._pending = {}  # the feedback owns the old dict now
        self.feedback_sent += 1
        if self.transmit is not None:
            self.transmit(packet)

    def stop(self) -> None:
        self._timer.stop()
        if self._nack_event is not None:
            self._nack_event.cancel()
