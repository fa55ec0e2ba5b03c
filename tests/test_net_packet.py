"""Tests for packets and five-tuples."""

import pytest

from repro.net.packet import FiveTuple, Packet, PacketKind


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self):
        flow = FiveTuple("a", "b", 1, 2, "tcp")
        rev = flow.reversed()
        assert rev == FiveTuple("b", "a", 2, 1, "tcp")

    def test_reversed_is_involution(self):
        flow = FiveTuple("a", "b", 1, 2)
        assert flow.reversed().reversed() == flow

    def test_hashable_and_usable_as_dict_key(self):
        flow = FiveTuple("a", "b", 1, 2)
        table = {flow: "x"}
        assert table[FiveTuple("a", "b", 1, 2)] == "x"


class TestPacket:
    def test_size_must_be_positive(self, flow):
        with pytest.raises(ValueError):
            Packet(flow, 0)

    def test_packet_ids_unique(self, flow):
        a = Packet(flow, 100)
        b = Packet(flow, 100)
        assert a.pkt_id != b.pkt_id

    def test_default_kind_is_data(self, flow):
        assert Packet(flow, 100).kind is PacketKind.DATA

    def test_headers_independent_between_packets(self, flow):
        a = Packet(flow, 100)
        b = Packet(flow, 100)
        a.headers["x"] = 1
        assert "x" not in b.headers
