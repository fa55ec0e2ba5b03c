"""Re-scan oracles for the transport in-flight ledger.

The bodies below are the pre-ledger implementations, kept verbatim:
``inflight_bytes`` re-sums the in-flight map on every read, the ACK
and SACK walks ``sorted()`` it, and the retransmission timer cancels
and reschedules a simulator event on every restart.  They are slow on
purpose and exist only so ``tests/test_properties_transport.py`` can
require the O(1) versions in ``src/repro/transport`` to emit exactly
the same packets at exactly the same instants.  The TCP bodies carry
the in-flight record's segment meta into retransmissions, as the live
sender does: a retransmitted frame tail still names its frame.
"""

from typing import Optional

from repro.net.packet import Packet
from repro.transport.quic import QuicSender
from repro.transport.stream import RTO_MIN
from repro.transport.tcp import TcpReceiver, TcpSender


class ReferenceTcpSender(TcpSender):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rto_event = None

    @property
    def inflight_bytes(self) -> int:
        return sum(size for size, _, _, _ in self._inflight.values())

    def _process_sack(self, packet: Packet) -> None:
        ranges = packet.headers.get("sack_ranges")
        if not ranges:
            return
        highest_sacked = max(end for _, end in ranges)
        for seq in list(self._inflight):
            size, _, _, _ = self._inflight[seq]
            for start, end in ranges:
                if start <= seq and seq + size <= end:
                    del self._inflight[seq]
                    break
        if any(seq < highest_sacked for seq in self._inflight):
            self._enter_recovery()
            for seq in sorted(self._inflight):
                if seq >= highest_sacked:
                    break
                size, sent_at, _, meta = self._inflight[seq]
                if self.sim.now - sent_at > max(self.srtt, 0.01):
                    self._emit(seq, size, meta, retransmitted=True)

    def _ack_inflight(self, ack: int) -> Optional[float]:
        sample: Optional[float] = None
        for seq in sorted(self._inflight):
            size, sent_at, retransmitted, _ = self._inflight[seq]
            if seq + size <= ack:
                del self._inflight[seq]
                if not retransmitted:
                    sample = self.sim.now - sent_at
        return sample

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if not self._inflight:
            return
        timeout = self._rto * self._rto_backoff
        self._rto_event = self.sim.schedule(timeout, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_event = None
        if not self._inflight:
            return
        self.rto_count += 1
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self.cca.on_rto(self.sim.now)
        self._recovery_until = self._next_seq
        first = min(self._inflight)
        size, _, _, meta = self._inflight[first]
        self._emit(first, size, meta, retransmitted=True)


class ReferenceTcpReceiver(TcpReceiver):
    def _sack_ranges(self, limit: int = 32) -> list[tuple[int, int]]:
        if not self._out_of_order:
            return []
        ranges: list[tuple[int, int]] = []
        for start in sorted(self._out_of_order):
            end = self._out_of_order[start][0]
            if ranges and start <= ranges[-1][1]:
                ranges[-1] = (ranges[-1][0], max(ranges[-1][1], end))
            else:
                ranges.append((start, end))
        return ranges[:limit]


class ReferenceQuicSender(QuicSender):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pto_event = None

    @property
    def inflight_bytes(self) -> int:
        return sum(size for size, _, _ in self._inflight.values())

    def _detect_losses(self) -> None:
        lost = [pn for pn in self._inflight
                if pn + 3 <= self._largest_acked]
        if not lost:
            return
        if max(lost) > self._loss_event_pn:
            self.cca.on_loss(self.sim.now)
            self._loss_event_pn = self._next_pn - 1
        for pn in sorted(lost):
            size, _, payload = self._inflight.pop(pn)
            self._emit(size, payload, retransmission_of=pn)

    def _arm_pto(self) -> None:
        if self._pto_event is not None:
            self._pto_event.cancel()
            self._pto_event = None
        if not self._inflight:
            return
        timeout = max(RTO_MIN, self.srtt + 4 * self._rttvar)
        self._pto_event = self.sim.schedule(timeout * 2, self._on_pto)

    def _on_pto(self) -> None:
        self._pto_event = None
        if not self._inflight:
            return
        self.pto_count += 1
        self.cca.on_rto(self.sim.now)
        pn = min(self._inflight)
        size, _, payload = self._inflight.pop(pn)
        self._emit(size, payload, retransmission_of=pn)
