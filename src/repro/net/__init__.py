"""Packet-level network substrate.

Packets, flows, drop-tail queues and wired links. Wireless links live
in :mod:`repro.wireless`; queue disciplines beyond drop-tail live in
:mod:`repro.aqm`; routing between nodes lives in
:mod:`repro.topology.forwarding`.
"""

from repro.net.packet import Packet, PacketKind, FiveTuple
from repro.net.queue import DropTailQueue, QueueStats
from repro.net.link import WiredLink

__all__ = [
    "Packet",
    "PacketKind",
    "FiveTuple",
    "DropTailQueue",
    "QueueStats",
    "WiredLink",
]
