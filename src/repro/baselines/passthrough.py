"""Plain AP: forwards both directions untouched (the no-Zhuge baseline)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet

ForwardCallback = Callable[[Packet], None]


class PassthroughAP:
    """Baseline access point with no feedback manipulation.

    Every AP mode shares its interface: ``on_downlink`` (WAN side, one
    packet), ``on_uplink`` / ``on_ack_batch`` (client side, one packet
    or one delivered list), ``on_wireless_delivery`` (the downlink
    wireless hop delivered a packet; ``None`` when the mode does not
    listen), ``packets_processed`` and the two ``forward_*`` next-hop
    callbacks the topology installs.
    """

    on_wireless_delivery: Optional[ForwardCallback] = None

    def __init__(self) -> None:
        self.forward_downlink: Optional[ForwardCallback] = None
        self.forward_uplink: Optional[ForwardCallback] = None
        self.packets_processed = 0

    def on_downlink(self, packet: Packet) -> None:
        self.packets_processed += 1
        if self.forward_downlink is not None:
            self.forward_downlink(packet)

    def on_uplink(self, packet: Packet) -> None:
        self.packets_processed += 1
        if self.forward_uplink is not None:
            self.forward_uplink(packet)

    def on_ack_batch(self, packets: list) -> None:
        self.packets_processed += len(packets)
        forward = self.forward_uplink
        if forward is not None:
            for packet in packets:
                forward(packet)
