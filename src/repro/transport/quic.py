"""QUIC-style transport: encrypted out-of-band feedback (§6 scalability).

The paper argues Zhuge keeps working when the transport encrypts
everything end-to-end: the AP identifies the flow by five-tuple only and
manipulates ACK *timing*, never content. This module provides that
transport so the claim is testable:

* packet-number-based acknowledgements (monotonic; retransmissions get
  NEW packet numbers — no retransmission ambiguity, unlike TCP),
* an ACK-delay field like QUIC's, which the sender subtracts from its
  RTT samples,
* all headers that matter to endpoints are OPAQUE to middleboxes: they
  live under ``headers["quic_sealed"]`` and middlebox code must never
  read them (enforced by tests).

The sender reuses the window-CCA interface, so Copa/BBR/CUBIC run over
QUIC unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.cca.base import WindowCca
from repro.metrics.recorder import RateRecorder, RttRecorder
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.transport.timer import DeadlineTimer

TransmitCallback = Callable[[Packet], None]


class QuicSender:
    """QUIC-like sending endpoint (packet-number space, sealed headers)."""

    def __init__(self, sim: Simulator, flow: FiveTuple, cca: WindowCca,
                 mss: int = 1200, rto_min: float = 0.2,
                 max_buffer_bytes: int = 4_000_000):
        self.sim = sim
        self.flow = flow
        self.cca = cca
        self.mss = mss
        self.rto_min = rto_min
        self.max_buffer_bytes = max_buffer_bytes
        self.transmit: Optional[TransmitCallback] = None

        self._next_pn = 0
        self._buffered: deque[tuple[int, dict]] = deque()
        self._buffered_bytes = 0
        # pn -> (size, sent_at, payload-descriptor).  Keys ascend in dict
        # order: every emission, retransmissions included, takes a new pn.
        self._inflight: dict[int, tuple[int, float, dict]] = {}
        self._inflight_bytes = 0        # sum of sizes in _inflight
        self._largest_acked = -1
        self._srtt = 0.0
        self._rttvar = 0.0
        self._loss_event_pn = -1
        self._pto_timer = DeadlineTimer(sim, self._on_pto)
        self.unlimited = False

        self.rtt_recorder = RttRecorder()
        self.rate_recorder = RateRecorder()
        self.packets_sent = 0
        self.retransmissions = 0
        self.pto_count = 0

    # -- application interface ------------------------------------------------

    def write(self, nbytes: int, meta: Optional[dict] = None) -> bool:
        if nbytes <= 0:
            raise ValueError(f"write size must be positive: {nbytes}")
        if self._buffered_bytes + nbytes > self.max_buffer_bytes:
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
        return self.cca.cwnd * 8 / self.srtt

    # -- sending ----------------------------------------------------------------

    def _try_send(self) -> None:
        while (self.cca.cwnd - self.inflight_bytes >= self.mss
               and self._send_one()):
            pass

    def _send_one(self) -> bool:
        payload: dict = {}
        if self.unlimited:
            size = self.mss
        else:
            if not self._buffered:
                return False
            pending, meta = self._buffered[0]
            size = min(pending, self.mss)
            payload = dict(meta)
            if pending <= size:
                self._buffered.popleft()
                payload["last_of_write"] = True
            else:
                self._buffered[0] = (pending - size, meta)
            self._buffered_bytes -= size
        self._emit(size, payload)
        return True

    def _emit(self, size: int, payload: dict,
              retransmission_of: Optional[int] = None) -> None:
        pn = self._next_pn
        self._next_pn += 1
        packet = Packet(self.flow, size, PacketKind.DATA, seq=pn,
                        sent_at=self.sim.now)
        # Everything an endpoint needs is sealed; a middlebox reading it
        # would be breaking encryption.
        packet.headers["quic_sealed"] = {"pn": pn, "payload": dict(payload)}
        self._inflight[pn] = (size, self.sim.now, dict(payload))
        self._inflight_bytes += size
        self.packets_sent += 1
        if retransmission_of is not None:
            self.retransmissions += 1
        if self.transmit is not None:
            self.transmit(packet)
        self._arm_pto()

    # -- ACK processing -----------------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        sealed = packet.headers.get("quic_sealed")
        if sealed is None:
            return
        acked: list[int] = sealed.get("acked", [])
        ack_delay: float = sealed.get("ack_delay", 0.0)
        newly_acked_bytes = 0
        rtt_sample = None
        largest = max(acked, default=-1)
        for pn in acked:
            entry = self._inflight.pop(pn, None)
            if entry is None:
                continue
            size, sent_at, _ = entry
            self._inflight_bytes -= size
            newly_acked_bytes += size
            if pn == largest:
                rtt_sample = max(0.0, self.sim.now - sent_at - ack_delay)
        if largest > self._largest_acked:
            self._largest_acked = largest
        if rtt_sample is not None:
            self._update_rtt(rtt_sample)
            self.rtt_recorder.record(self.sim.now, rtt_sample)
        if newly_acked_bytes:
            self.cca.on_ack(self.sim.now, rtt_sample or self.srtt,
                            newly_acked_bytes)
            self.rate_recorder.record(self.sim.now,
                                      self.cca.cwnd * 8 / self.srtt)
        self._detect_losses()
        self._arm_pto()
        self._try_send()

    def _detect_losses(self) -> None:
        """QUIC packet-threshold loss detection (kPacketThreshold = 3)."""
        lost: list[int] = []
        for pn in self._inflight:
            if pn + 3 > self._largest_acked:
                break
            lost.append(pn)
        if not lost:
            return
        if lost[-1] > self._loss_event_pn:
            self.cca.on_loss(self.sim.now)
            self._loss_event_pn = self._next_pn - 1
        for pn in lost:
            self._retransmit(pn)

    def _retransmit(self, pn: int) -> None:
        size, _, payload = self._inflight.pop(pn)
        self._inflight_bytes -= size
        self._emit(size, payload, retransmission_of=pn)

    def _update_rtt(self, rtt: float) -> None:
        if self._srtt == 0:
            self._srtt = rtt
            self._rttvar = rtt / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt

    # -- probe timeout ----------------------------------------------------------

    def _arm_pto(self) -> None:
        if self._inflight:
            timeout = max(self.rto_min, self.srtt + 4 * self._rttvar)
            self._pto_timer.set(self.sim.now + timeout * 2)
        else:
            self._pto_timer.clear()

    def _on_pto(self) -> None:
        if not self._inflight:
            return
        self.pto_count += 1
        self.cca.on_rto(self.sim.now)
        self._retransmit(next(iter(self._inflight)))


class QuicReceiver:
    """QUIC-like receiving endpoint: ACKs every packet with ack_delay=0.

    Delivers stream data in packet-number order per write (packets carry
    whole application chunks; ordering within a write is by pn).
    """

    def __init__(self, sim: Simulator, flow: FiveTuple,
                 ack_size: int = ACK_SIZE):
        self.sim = sim
        self.flow = flow
        self.ack_size = ack_size
        self.transmit: Optional[TransmitCallback] = None
        self.on_deliver: Optional[Callable[[dict, float], None]] = None
        self.packets_received = 0
        self.acks_sent = 0
        self._received: set[int] = set()

    def on_data(self, packet: Packet) -> None:
        sealed = packet.headers.get("quic_sealed")
        if sealed is None:
            return
        pn = sealed["pn"]
        self.packets_received += 1
        if pn not in self._received:
            self._received.add(pn)
            if self.on_deliver is not None:
                self.on_deliver(dict(sealed["payload"]), self.sim.now)
        self._send_ack(pn)

    def _send_ack(self, pn: int) -> None:
        ack = Packet(self.flow.reversed(), self.ack_size, PacketKind.ACK,
                     sent_at=self.sim.now)
        ack.headers["quic_sealed"] = {"acked": [pn], "ack_delay": 0.0}
        self.acks_sent += 1
        if self.transmit is not None:
            self.transmit(ack)
