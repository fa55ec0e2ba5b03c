"""Tests for FastAck and passthrough baselines."""


from repro.baselines.fastack import FastAckAP, FastAckProxy
from repro.baselines.passthrough import PassthroughAP
from repro.net.packet import FiveTuple, Packet, PacketKind


class TestPassthrough:
    def test_forwards_both_directions(self, flow):
        ap = PassthroughAP()
        down, up = [], []
        ap.forward_downlink = down.append
        ap.forward_uplink = up.append
        ap.on_downlink(Packet(flow, 1200))
        ap.on_uplink(Packet(flow.reversed(), 60, PacketKind.ACK))
        assert len(down) == 1 and len(up) == 1
        assert ap.packets_processed == 2


class TestFastAck:
    def _data(self, flow, seq, size=1448):
        packet = Packet(flow, size, PacketKind.DATA, seq=seq)
        packet.headers["end_seq"] = seq + size
        return packet

    def test_counterfeit_ack_on_delivery(self, sim, flow):
        proxy = FastAckProxy(sim, flow)
        acks = []
        proxy.forward_uplink = acks.append
        proxy.on_wireless_delivery(self._data(flow, 0))
        assert len(acks) == 1
        assert acks[0].ack == 1448
        assert acks[0].flow == flow.reversed()

    def test_cumulative_over_out_of_order(self, sim, flow):
        proxy = FastAckProxy(sim, flow)
        acks = []
        proxy.forward_uplink = acks.append
        proxy.on_wireless_delivery(self._data(flow, 1448))  # gap
        assert acks[-1].ack == 0
        proxy.on_wireless_delivery(self._data(flow, 0))     # fills gap
        assert acks[-1].ack == 2896

    def test_suppresses_redundant_client_acks(self, sim, flow):
        proxy = FastAckProxy(sim, flow)
        proxy.forward_uplink = lambda p: None
        proxy.on_wireless_delivery(self._data(flow, 0))
        forwarded = []
        client_ack = Packet(flow.reversed(), 60, PacketKind.ACK, ack=1448)
        proxy.on_uplink(client_ack, forwarded.append)
        assert forwarded == []
        assert proxy.suppressed_acks == 1

    def test_forwards_client_acks_beyond_counterfeits(self, sim, flow):
        proxy = FastAckProxy(sim, flow)
        proxy.forward_uplink = lambda p: None
        forwarded = []
        newer_ack = Packet(flow.reversed(), 60, PacketKind.ACK, ack=5000)
        proxy.on_uplink(newer_ack, forwarded.append)
        assert forwarded == [newer_ack]

    def test_ignores_other_flows(self, sim, flow):
        proxy = FastAckProxy(sim, flow)
        acks = []
        proxy.forward_uplink = acks.append
        other = FiveTuple("x", "y", 9, 9)
        proxy.on_wireless_delivery(self._data(other, 0))
        assert acks == []

    def test_ignores_non_data(self, sim, flow):
        proxy = FastAckProxy(sim, flow)
        acks = []
        proxy.forward_uplink = acks.append
        proxy.on_wireless_delivery(Packet(flow, 60, PacketKind.ACK))
        assert acks == []


class TestFastAckAp:
    def test_counts_forwarded_acks_only(self, sim, flow):
        ap = FastAckAP(sim)
        ap.register_flow(flow)
        up = []
        ap.forward_uplink = up.append
        data = Packet(flow, 1448, PacketKind.DATA, seq=0)
        data.headers["end_seq"] = 1448
        ap.on_wireless_delivery(data)          # counterfeit ack=1448
        stale = Packet(flow.reversed(), 60, PacketKind.ACK, ack=1448)
        newer = Packet(flow.reversed(), 60, PacketKind.ACK, ack=2896)
        other = Packet(FiveTuple("x", "y", 9, 9), 60, PacketKind.ACK)
        ap.on_ack_batch([stale, newer, other])
        assert up[0].ack == 1448 and up[1:] == [newer, other]
        assert ap.packets_processed == 3
        assert ap.proxies[flow].suppressed_acks == 1
