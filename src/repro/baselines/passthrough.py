"""Plain AP: forwards both directions untouched (the no-Zhuge baseline)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet

ForwardCallback = Callable[[Packet], None]


class PassthroughAP:
    """Baseline access point with no feedback manipulation."""

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

    def on_data_batch(self, packets: list) -> None:
        """Batch twin of :meth:`on_downlink`."""
        self.packets_processed += len(packets)
        forward = self.forward_downlink
        if forward is not None:
            for packet in packets:
                forward(packet)

    def on_ack_batch(self, packets: list) -> None:
        """Batch twin of :meth:`on_uplink`."""
        self.packets_processed += len(packets)
        forward = self.forward_uplink
        if forward is not None:
            for packet in packets:
                forward(packet)
