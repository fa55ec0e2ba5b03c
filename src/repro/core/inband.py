"""In-band Feedback Updater: constructing TWCC feedback at the AP (§5.3).

Step 1 (packet fortune recording): on each downlink RTP packet, the
updater reads the TWCC sequence number from the (unencrypted) header,
predicts the packet's delay with the Fortune Teller, and stores the
predicted arrival time ``now + predicted``.

Step 2 (feedback construction): on its own timer — like an RTP receiver
would, roughly once per frame — the updater builds a TWCC feedback
packet from stored predictions and sends it uplink. Client-built TWCC
packets are dropped to keep timestamps consistent (one clock: the
AP's); all other RTCP (NACKs, receiver reports) passes through.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.fortune_teller import FortuneTeller
from repro.net.packet import FiveTuple, Packet, PacketKind, RTCP_SIZE
from repro.sim.engine import Simulator, Timer
from repro.transport.rtp import TwccFeedback


class InBandFeedbackUpdater:
    """AP-resident TWCC feedback constructor for one RTP flow."""

    def __init__(self, sim: Simulator, fortune_teller: FortuneTeller,
                 flow: FiveTuple, feedback_interval: float = 0.040,
                 feedback_size: int = RTCP_SIZE):
        self.sim = sim
        self.fortune_teller = fortune_teller
        self.flow = flow
        self.feedback_size = feedback_size
        self.send_uplink: Optional[Callable[[Packet], None]] = None

        self._predicted_arrivals: dict[int, float] = {}
        self._last_predicted = 0.0
        self._base_seq = 0
        self.feedback_constructed = 0
        self.client_feedback_dropped = 0
        #: Degraded-mode switch: while True the AP stops synthesizing
        #: TWCC and lets the client's own feedback through unmodified.
        #: Flipped by the AP watchdog.
        self.passthrough = False
        #: Tracing probe (:class:`repro.obs.bus.TraceBus`); ``None`` =
        #: disabled.
        self.trace = None
        self._track = "ap"
        self._timer = Timer(sim, feedback_interval, self._emit_feedback)
        # The AP sees its own queue drop packets whose fortunes were
        # already recorded; those must be reported as LOST, not as
        # arriving at their predicted time, or the sender's loss-based
        # controller goes blind.
        fortune_teller.queue.on_drop.append(self._on_queue_drop)

    def _on_queue_drop(self, packet, reason: str) -> None:
        if packet.flow != self.flow:
            return
        twcc_seq = packet.headers.get("twcc_seq")
        if twcc_seq is not None and twcc_seq in self._predicted_arrivals:
            del self._predicted_arrivals[twcc_seq]

    # -- Step 1: fortune recording ------------------------------------------

    def enable_trace(self, bus, track: str = "ap") -> None:
        self.trace = bus
        self._track = track

    def on_data_packet(self, packet: Packet) -> None:
        prediction = self.fortune_teller.predict()
        if self.trace is not None:
            self.trace.ap_prediction(self._track, packet, prediction)
        twcc_seq = packet.headers.get("twcc_seq")
        if twcc_seq is not None and not self.passthrough:
            # Real receivers stamp monotone arrival times; clamp so
            # prediction noise never reports time running backwards.
            predicted = max(self.sim.now + prediction.total,
                            self._last_predicted)
            self._predicted_arrivals[twcc_seq] = predicted
            self._last_predicted = predicted

    # -- Step 2: feedback construction -----------------------------------------

    def _emit_feedback(self) -> None:
        if self.passthrough:
            return
        if not self._predicted_arrivals or self.send_uplink is None:
            return
        feedback = TwccFeedback(base_seq=self._base_seq,
                                arrivals=self._predicted_arrivals,
                                constructed_at=self.sim.now,
                                constructed_by="zhuge-ap")
        # Dropped seqs below the reported frontier are implicitly "not
        # in arrivals" => the sender marks them lost.
        self._base_seq = max(self._predicted_arrivals) + 1
        self._predicted_arrivals = {}  # the feedback owns the old dict now
        packet = Packet(self.flow.reversed(), self.feedback_size,
                        PacketKind.RTCP_TWCC, sent_at=self.sim.now)
        packet.headers["twcc_feedback"] = feedback
        self.feedback_constructed += 1
        if self.trace is not None:
            self.trace.ap_feedback(self._track, len(feedback.arrivals),
                                   feedback.base_seq)
        self.send_uplink(packet)

    # -- uplink interception -------------------------------------------------------

    def on_feedback_packet(self, packet: Packet,
                           forward: Callable[[Packet], None]) -> None:
        """Drop client TWCC (ours replaces it); forward everything else."""
        if self.passthrough:
            # Degraded: the client's own TWCC is the only trustworthy
            # feedback — let it through untouched.
            forward(packet)
            return
        if packet.kind == PacketKind.RTCP_TWCC:
            feedback: TwccFeedback | None = packet.headers.get("twcc_feedback")
            if feedback is None or feedback.constructed_by != "zhuge-ap":
                self.client_feedback_dropped += 1
                return
        forward(packet)

    def reset_state(self) -> None:
        """Forget recorded fortunes (AP restart / client handover).

        ``_last_predicted`` and ``_base_seq`` survive: the first keeps
        reported arrival times monotone across the reset, the second
        keeps the TWCC sequence frontier consistent for the sender.
        """
        self._predicted_arrivals.clear()

    def stop(self) -> None:
        self._timer.stop()
