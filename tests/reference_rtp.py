"""Full-scan oracles for the RTC feedback frontier.

The bodies below are the pre-frontier implementations, kept verbatim:
``RtpSender.on_feedback`` ``sorted()``s and walks the whole send
history against a ``_reported`` set, GCC re-scans its receive window
with a ``max`` and a ``sum`` generator on every feedback, and the
trendline slope makes four generator passes over its samples.  They
are slow on purpose and exist only so
``tests/test_properties_rtc_feedback.py`` can require the
O(newly reported) versions in ``src/repro`` to hand the CCA exactly
the same reports and land on exactly the same floats.
"""

from repro.cca.base import FeedbackPacketReport
from repro.cca.gcc import GccController, TrendlineEstimator
from repro.net.packet import Packet
from repro.transport.rtp import RtpSender, TwccFeedback


class ReferenceRtpSender(RtpSender):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reported: set[int] = set()

    def _trim_history(self) -> None:
        # Seqs are emitted in send-time order, so evict from the front.
        horizon = self.sim.now - self.history_window
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
