"""TCP-like reliable byte stream with pluggable window CCAs.

Segments carry byte-based sequence numbers; the receiver acknowledges
every data packet with a cumulative ACK (the per-packet acking the
paper attributes to RTC TCP clients). On top of the
:class:`~repro.transport.stream.StreamSender` it shares with QUIC, the
sender samples RTT per Karn's rule, fast-retransmits after three
duplicate ACKs, recovers SACKed holes, falls back to an exponentially
backed-off RTO, and optionally paces. Payloads are byte counts plus
per-segment metadata (frame ids), so a video app can track frames.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional

from repro.cca.base import WindowCca
from repro.net.packet import (ACK_SIZE, TCP_SEGMENT_SIZE, FiveTuple, Packet,
                              PacketKind)
from repro.sim.engine import Event, Simulator
from repro.transport.stream import StreamSender, TransmitCallback
from repro.transport.timer import DeadlineTimer


class TcpSender(StreamSender):
    """Sending endpoint of the byte stream."""

    def __init__(self, sim: Simulator, flow: FiveTuple, cca: WindowCca):
        super().__init__(sim, flow, cca, TCP_SEGMENT_SIZE, initial_rto=1.0)
        self._next_seq = 0              # next new byte to send
        self._highest_acked = 0         # cumulative ACK point
        self._inflight: dict[int, tuple[int, float, bool, dict]] = {}
        # seq -> (size, sent_at, retransmitted, meta).  Keys ascend in dict
        # order: a new segment takes the monotone _next_seq and a
        # retransmission overwrites its key in place, so the first key
        # is the lowest outstanding byte and walks can stop early.
        self._dup_acks = 0
        self._rto_timer = DeadlineTimer(sim, self._on_rto)
        self._pacing_event: Optional[Event] = None
        self._recovery_until = 0        # seq: loss events collapse to one
        self.segments_sent = 0
        self.rto_count = 0

    # -- sending ----------------------------------------------------------------

    def _try_send(self) -> None:
        if self._pacing_event is not None:
            return  # pacing loop is already driving transmission
        pacing = self.cca.pacing_rate(self.srtt)
        if pacing is not None and pacing > 0:
            self._pacing_event = self.sim.schedule(0.0, self._paced_send)
            return
        while (self.cca.cwnd - self.inflight_bytes >= self.mss
               and self._send_one()):
            pass

    def _paced_send(self) -> None:
        self._pacing_event = None
        if self.cca.cwnd - self.inflight_bytes < self.mss:
            return
        if not self._send_one():
            return
        pacing = self.cca.pacing_rate(self.srtt) or (self.cca.cwnd * 8 / self.srtt)
        gap = self.mss * 8 / max(pacing, 1_000.0)
        self._pacing_event = self.sim.schedule(gap, self._paced_send)

    def _emit_new(self, size: int, meta: dict) -> None:
        seq = self._next_seq
        self._next_seq = seq + size
        self._emit(seq, size, meta, False)

    def _emit(self, seq: int, size: int, meta: dict,
              retransmitted: bool) -> None:
        packet = Packet(self.flow, size, PacketKind.DATA, seq=seq,
                        sent_at=self.sim.now, headers=dict(meta))
        packet.headers["end_seq"] = seq + size
        self._inflight[seq] = (size, self.sim.now, retransmitted, meta)
        self.segments_sent += 1
        if retransmitted:
            self.retransmissions += 1
        else:
            self._inflight_bytes += size
        if self.transmit is not None:
            self.transmit(packet)
        self._arm_rto()

    # -- receiving ACKs -----------------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Process an incoming cumulative ACK."""
        ack = packet.ack
        mark = packet.headers.get("abc_mark")
        if mark is not None:
            self.cca.on_explicit_feedback(self.sim.now, mark)

        if ack > self._highest_acked:
            self._dup_acks = 0
            self._rto_backoff = 1
            acked_bytes = ack - self._highest_acked
            self._highest_acked = ack
            self._validate_cwnd()
            rtt_sample = self._ack_inflight(ack)
            if rtt_sample is not None:
                self._update_rtt(rtt_sample)
                self.cca.on_ack(self.sim.now, rtt_sample, acked_bytes)
            else:
                self.cca.on_ack(self.sim.now, self.srtt, acked_bytes)
            if self.rate_recorder is not None:
                self.rate_recorder.record(self.sim.now,
                                          self.cca.cwnd * 8 / self.srtt)
            self._process_sack(packet)
            self._arm_rto()
        elif ack == self._highest_acked and self._inflight:
            self._dup_acks += 1
            self._process_sack(packet)
            if self._dup_acks >= 3:
                self._enter_recovery()
        self._try_send()

    def _process_sack(self, packet: Packet) -> None:
        """Handle SACK information: clear sacked segments, fill holes.

        Out-of-order segments the receiver already holds are removed
        from the in-flight set (their bytes are delivered for windowing
        purposes), and every hole below the highest sacked byte is
        retransmitted — at most once per SRTT per hole. Without this,
        a slow-start overshoot that drops hundreds of segments recovers
        one hole per RTT (NewReno) or one per backed-off RTO.
        """
        ranges = packet.headers.get("sack_ranges")
        if not ranges:
            return
        highest_sacked = max(end for _, end in ranges)
        inflight = self._inflight
        sacked: list[int] = []
        holes: list[int] = []
        for seq, (size, _, _, _) in inflight.items():
            if seq >= highest_sacked:
                break   # nothing at or past the frontier can be sacked
            for start, end in ranges:
                if start <= seq and seq + size <= end:
                    sacked.append(seq)
                    break
            else:
                holes.append(seq)
        for seq in sacked:
            self._inflight_bytes -= inflight.pop(seq)[0]
        # Retransmit remaining holes below the sacked frontier.
        if holes:
            self._enter_recovery()
            for seq in holes:
                size, sent_at, _, meta = inflight[seq]
                if self.sim.now - sent_at > max(self.srtt, 0.01):
                    self._emit(seq, size, meta, retransmitted=True)

    def _enter_recovery(self) -> None:
        """One congestion notification per window of loss; retransmit
        the first hole immediately."""
        if self._highest_acked >= self._recovery_until:
            self.cca.on_loss(self.sim.now)
            self._recovery_until = self._next_seq
        if self._highest_acked in self._inflight:
            size, sent_at, _, meta = self._inflight[self._highest_acked]
            if self.sim.now - sent_at > max(self.srtt / 2, 0.005):
                self._emit(self._highest_acked, size, meta,
                           retransmitted=True)

    def _validate_cwnd(self) -> None:
        """Congestion-window validation (RFC 7661, simplified).

        An application-limited sender never tests the window it holds, so
        letting the CCA grow it unboundedly (e.g. ABC's per-ACK
        accelerate marks against a rate-capped video) stores up a burst
        that devastates the queue on the next rate change. When the
        buffer is empty and the window is mostly unused, decay it toward
        what the flow actually uses.
        """
        if self.unlimited or self._buffered:
            return
        used = self.inflight_bytes
        if self.cca.cwnd > max(4 * used, 10 * self.mss):
            self.cca.cwnd = max(int(self.cca.cwnd * 0.98), 10 * self.mss)

    def _ack_inflight(self, ack: int) -> Optional[float]:
        """Drop acked segments; return an RTT sample per Karn's rule."""
        sample: Optional[float] = None
        acked: list[int] = []
        for seq, (size, sent_at, retransmitted, _) in self._inflight.items():
            if seq + size > ack:
                break
            acked.append(seq)
            self._inflight_bytes -= size
            if not retransmitted:
                sample = self.sim.now - sent_at
        for seq in acked:
            del self._inflight[seq]
        return sample

    # -- loss recovery ---------------------------------------------------------------

    def _on_rto(self) -> None:
        if not self._inflight:
            return
        self.rto_count += 1
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self.cca.on_rto(self.sim.now)
        self._recovery_until = self._next_seq
        first = next(iter(self._inflight))
        size, _, _, meta = self._inflight[first]
        self._emit(first, size, meta, retransmitted=True)


class TcpReceiver:
    """Receiving endpoint: cumulative ACK per data packet.

    Tracks received byte ranges so out-of-order arrivals are buffered,
    and delivers in-order segment metadata to an application callback
    (used by the video receiver to detect frame completion).  SACK
    ranges are merged as segments arrive, which relies on segments
    tiling the byte stream (a sender never re-segments).
    """

    def __init__(self, sim: Simulator, flow: FiveTuple):
        self.sim = sim
        self.flow = flow
        self.transmit: Optional[TransmitCallback] = None
        self.on_deliver: Optional[Callable[[int, int, dict, float], None]] = None
        # (seq, end_seq, meta, arrival_time) for each in-order delivery

        self._ack_flow = flow.reversed()
        self._ack_point = 0
        self._out_of_order: dict[int, tuple[int, dict, float]] = {}
        self._sack: list[tuple[int, int]] = []  # merged held ranges, ascending
        self.packets_received = 0
        self.acks_sent = 0
        self.sack_enabled = True

    def on_data(self, packet: Packet) -> None:
        self.packets_received += 1
        seq = packet.seq
        end_seq = packet.headers.get("end_seq", seq + packet.size)
        if seq >= self._ack_point and seq not in self._out_of_order:
            self._out_of_order[seq] = (end_seq, dict(packet.headers),
                                       self.sim.now)
            if seq > self._ack_point:   # else _advance takes it right back
                self._hold(seq, end_seq)
        self._advance()
        self._send_ack(echo_mark=packet.headers.get("abc_mark"))

    def _advance(self) -> None:
        while self._ack_point in self._out_of_order:
            end_seq, meta, arrived = self._out_of_order.pop(self._ack_point)
            if self.on_deliver is not None:
                self.on_deliver(self._ack_point, end_seq, meta, self.sim.now)
            self._ack_point = end_seq
        # Delivery ran through the whole first held range or none of it.
        if self._sack and self._sack[0][0] < self._ack_point:
            del self._sack[0]

    def _hold(self, start: int, end: int) -> None:
        """Fold a newly held segment into the merged SACK ranges."""
        ranges = self._sack
        i = bisect_left(ranges, (start,))   # first range at or after start
        if i and ranges[i - 1][1] >= start:
            i -= 1
            start = ranges[i][0]
        j = i
        while j < len(ranges) and ranges[j][0] <= end:
            end = max(end, ranges[j][1])
            j += 1
        ranges[i:j] = [(start, end)]

    def _sack_ranges(self, limit: int = 32) -> list[tuple[int, int]]:
        """Merged (start, end) ranges of out-of-order data held."""
        return self._sack[:limit]

    def _send_ack(self, echo_mark: Optional[str]) -> None:
        ack = Packet(self._ack_flow, ACK_SIZE, PacketKind.ACK,
                     ack=self._ack_point, sent_at=self.sim.now)
        if echo_mark is not None:
            ack.headers["abc_mark"] = echo_mark
        if self.sack_enabled and self._out_of_order:
            ranges = self._sack_ranges()
            if ranges:
                ack.headers["sack_ranges"] = ranges
        self.acks_sent += 1
        if self.transmit is not None:
            self.transmit(ack)
