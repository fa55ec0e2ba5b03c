"""FastAck (Bhartia et al., IMC 2017): AP-side early TCP acknowledgement.

The AP counterfeits a TCP ACK toward the sender as soon as the 802.11
MAC confirms delivery of a data packet to the client (our wireless
link's delivery event), and suppresses the client's own ACKs for
sequence ranges already acked. This removes the uplink-wireless segment
(iii of Fig. 1) from the control loop — but, unlike Zhuge, the signal
still waits through the downlink queue (i) and downlink wireless (ii),
and the counterfeit ACK stream makes retransmission behaviour more
aggressive (the paper's §7.3 observation).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.passthrough import ForwardCallback, PassthroughAP
from repro.net.packet import ACK_SIZE, FiveTuple, Packet, PacketKind
from repro.sim.engine import Simulator


class FastAckProxy:
    """Per-flow early-ACK state machine at the AP."""

    def __init__(self, sim: Simulator, flow: FiveTuple):
        self.sim = sim
        self.flow = flow
        self.forward_uplink: Optional[ForwardCallback] = None
        self._expected_seq = 0        # next in-order byte (AP's view)
        self._out_of_order: dict[int, int] = {}  # seq -> end_seq
        self._highest_acked = 0       # highest counterfeit cumulative ACK
        self.counterfeit_acks = 0
        self.suppressed_acks = 0

    # -- downlink side: wireless delivered a data packet ---------------------

    def on_wireless_delivery(self, packet: Packet) -> None:
        """MAC-layer delivery confirmation => counterfeit an ACK."""
        if packet.flow != self.flow or packet.kind != PacketKind.DATA:
            return
        end_seq = packet.headers.get("end_seq", packet.seq + packet.size)
        if packet.seq >= self._expected_seq:
            self._out_of_order.setdefault(packet.seq, end_seq)
        while self._expected_seq in self._out_of_order:
            self._expected_seq = self._out_of_order.pop(self._expected_seq)
        self._emit_ack()

    def _emit_ack(self) -> None:
        ack = Packet(self.flow.reversed(), ACK_SIZE, PacketKind.ACK,
                     ack=self._expected_seq, sent_at=self.sim.now)
        self._highest_acked = max(self._highest_acked, self._expected_seq)
        self.counterfeit_acks += 1
        if self.forward_uplink is not None:
            self.forward_uplink(ack)

    # -- uplink side: suppress the client's duplicate information -----------------

    def on_uplink(self, packet: Packet,
                  forward: Callable[[Packet], None]) -> None:
        if (packet.kind == PacketKind.ACK
                and packet.flow == self.flow.reversed()
                and packet.ack <= self._highest_acked):
            self.suppressed_acks += 1
            return
        forward(packet)


class FastAckAP(PassthroughAP):
    """Access point running FastAck for its registered TCP flows.

    Client ACKs a proxy has already counterfeited are suppressed (not
    counted, not forwarded); every other uplink packet and every
    counterfeit ACK goes out through :meth:`on_uplink`.
    """

    def __init__(self, sim: Simulator):
        super().__init__()
        self.sim = sim
        #: Downlink flow -> its proxy.
        self.proxies: dict[FiveTuple, FastAckProxy] = {}

    def register_flow(self, flow: FiveTuple) -> None:
        """Proxy ``flow``; a flow already proxied keeps its proxy."""
        if flow not in self.proxies:
            proxy = FastAckProxy(self.sim, flow)
            proxy.forward_uplink = self.on_uplink
            self.proxies[flow] = proxy

    def on_ack_batch(self, packets: list) -> None:
        proxies = self.proxies
        on_uplink = self.on_uplink
        for packet in packets:
            proxy = proxies.get(packet.flow.reversed())
            if proxy is not None:
                proxy.on_uplink(packet, on_uplink)
            else:
                on_uplink(packet)

    def on_wireless_delivery(self, packet: Packet) -> None:
        proxy = self.proxies.get(packet.flow)
        if proxy is not None:
            proxy.on_wireless_delivery(packet)
