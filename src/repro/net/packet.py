"""Packet and flow-identity types.

A :class:`Packet` is the unit moved by links and queues. Transport
protocols attach their headers in typed attributes rather than raw bytes;
middleboxes that must treat payloads as opaque (Zhuge in out-of-band
mode) only ever read the :class:`FiveTuple` and timestamps.

Both types use allocation-lean layouts (PR 6): :class:`FiveTuple` is a
``NamedTuple`` — construction, hashing, and equality run as plain tuple
operations in C, which matters because the AP hashes a five-tuple per
packet — and :class:`Packet` is a ``__slots__`` class, dropping the
per-instance ``__dict__`` on the millions of packets a campaign creates.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, NamedTuple, Optional


class PacketKind(enum.Enum):
    """Coarse packet classification used by middleboxes and queues."""

    DATA = "data"            # downlink payload (TCP segment / RTP packet)
    ACK = "ack"              # out-of-band feedback (TCP/QUIC ACK)
    RTCP_TWCC = "rtcp_twcc"  # in-band TWCC feedback packet
    RTCP_OTHER = "rtcp_other"  # receiver reports, NACKs, ...
    CONTROL = "control"      # explicit-feedback control (ABC fields, etc.)


class FiveTuple(NamedTuple):
    """Flow identity: the only thing Zhuge needs to match a flow."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    proto: str = "udp"

    def reversed(self) -> "FiveTuple":
        """Identity of packets travelling the opposite direction."""
        return FiveTuple(self.dst, self.src, self.dst_port,
                         self.src_port, self.proto)


_packet_ids = itertools.count(1)


class Packet:
    """A simulated packet.

    Attributes:
        flow: the packet's five-tuple.
        size: bytes on the wire (headers included).
        kind: coarse classification (data vs feedback).
        seq: transport sequence number (byte- or packet-based, protocol
            defined); opaque to middleboxes.
        ack: cumulative acknowledgement carried by feedback packets.
        sent_at: time the sender emitted the packet.
        headers: per-protocol annotations (TWCC seq, frame ids, ECN-style
            marks). Middleboxes may add keys; end hosts own the schema.
        enqueued_at / dequeued_at / received_at: timestamps stamped by
            the AP / receiver as the packet moves.
    """

    __slots__ = ("flow", "size", "kind", "seq", "ack", "sent_at",
                 "headers", "pkt_id", "enqueued_at", "dequeued_at",
                 "received_at")

    def __init__(self, flow: FiveTuple, size: int,
                 kind: PacketKind = PacketKind.DATA,
                 seq: int = -1, ack: int = -1, sent_at: float = 0.0,
                 headers: Optional[dict[str, Any]] = None,
                 pkt_id: Optional[int] = None,
                 enqueued_at: Optional[float] = None,
                 dequeued_at: Optional[float] = None,
                 received_at: Optional[float] = None):
        if size <= 0:
            raise ValueError(f"packet size must be positive: {size}")
        self.flow = flow
        self.size = size
        self.kind = kind
        self.seq = seq
        self.ack = ack
        self.sent_at = sent_at
        self.headers = {} if headers is None else headers
        self.pkt_id = next(_packet_ids) if pkt_id is None else pkt_id
        self.enqueued_at = enqueued_at
        self.dequeued_at = dequeued_at
        self.received_at = received_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Packet(id={self.pkt_id}, {self.kind.value}, "
                f"seq={self.seq}, size={self.size})")


# Conventional sizes (bytes) used across the reproduction.
MTU = 1500
RTP_PAYLOAD_SIZE = 1200
TCP_SEGMENT_SIZE = 1448
ACK_SIZE = 60
RTCP_SIZE = 120
