"""What the TCP and QUIC senders share (Table 2's out-of-band family).

:class:`StreamSender` owns the write buffer, the MSS chunking, RFC 6298
SRTT/RTTVAR/RTO, the retransmission timer's arming and the rate
recorder's slot, which the builder fills for the flows a summary reads.
Each subclass owns its sequence space, ACK processing and loss
recovery, and sends a new segment through ``_emit_new``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.cca.base import WindowCca
from repro.metrics.recorder import RateRecorder
from repro.net.packet import FiveTuple, Packet
from repro.sim.engine import Simulator

TransmitCallback = Callable[[Packet], None]

#: RFC 6298's floor on the retransmission timeout (Linux's 200 ms).
RTO_MIN = 0.2
#: Send-buffer size; a write that would overfill it is refused.
MAX_BUFFER_BYTES = 4_000_000


class StreamSender:
    """Write buffer, MSS chunking and RTT smoothing of a window-CCA sender."""

    def __init__(self, sim: Simulator, flow: FiveTuple, cca: WindowCca,
                 mss: int, initial_rto: float):
        self.sim = sim
        self.flow = flow
        self.cca = cca
        self.mss = mss
        self.transmit: Optional[TransmitCallback] = None

        self._buffered: deque[tuple[int, dict]] = deque()  # (bytes, meta)
        self._buffered_bytes = 0
        self._inflight_bytes = 0        # sum of sizes in the in-flight map
        self._srtt = 0.0
        self._rttvar = 0.0
        self._rto = initial_rto         # retransmission timeout, unbacked
        self._rto_backoff = 1           # the timer runs _rto * this
        self.unlimited = False          # bulk mode: infinite data

        self.rate_recorder: Optional[RateRecorder] = None
        self.retransmissions = 0

    # -- application interface ------------------------------------------------

    def write(self, nbytes: int, meta: Optional[dict] = None) -> bool:
        """Append application bytes; False when the buffer is full."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive: {nbytes}")
        if self._buffered_bytes + nbytes > MAX_BUFFER_BYTES:
            return False
        self._buffered.append((nbytes, dict(meta or {})))
        self._buffered_bytes += nbytes
        self._try_send()
        return True

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    @property
    def inflight_bytes(self) -> int:
        return self._inflight_bytes

    @property
    def srtt(self) -> float:
        return self._srtt if self._srtt > 0 else 0.1

    def estimated_rate_bps(self) -> float:
        """cwnd/srtt estimate the application uses to pick its bitrate."""
        return self.cca.cwnd * 8 / self.srtt

    # -- sending ----------------------------------------------------------------

    def _try_send(self) -> None:
        while (self.cca.cwnd - self.inflight_bytes >= self.mss
               and self._send_one()):
            pass

    def _send_one(self) -> bool:
        """Emit one new segment from the buffer; False when nothing to send.

        A write larger than the MSS leaves as several segments, each
        carrying the write's meta; the last also carries
        ``last_of_write``.
        """
        meta: dict = {}
        if self.unlimited:
            size = self.mss
        else:
            if not self._buffered:
                return False
            pending, write_meta = self._buffered[0]
            size = min(pending, self.mss)
            meta = dict(write_meta)
            if pending <= size:
                self._buffered.popleft()
                meta["last_of_write"] = True
            else:
                self._buffered[0] = (pending - size, write_meta)
            self._buffered_bytes -= size
        self._emit_new(size, meta)
        return True

    def _arm_rto(self) -> None:
        """Restart the retransmission timer (``_rto_timer``, the
        subclass's) while anything is in flight."""
        if self._inflight:
            self._rto_timer.set(self.sim.now + self._rto * self._rto_backoff)
        else:
            self._rto_timer.clear()

    # -- RTT estimation (RFC 6298) ----------------------------------------------

    def _update_rtt(self, rtt: float) -> None:
        """Fold one RTT sample into SRTT/RTTVAR and the RTO."""
        if self._srtt == 0:
            self._srtt = rtt
            self._rttvar = rtt / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = max(RTO_MIN, self._srtt + 4 * self._rttvar)
