"""Tests for the wireless models: MCS, channel, interference, link."""

import pytest

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.random import DeterministicRandom
from repro.traces.trace import BandwidthTrace
from repro.wireless import (
    MCS_TABLE_80211N,
    InterferenceModel,
    McsController,
    WirelessChannel,
    WirelessLink,
)


class TestMcsController:
    def test_defaults_to_highest_rate(self):
        mcs = McsController()
        assert mcs.phy_rate_bps == MCS_TABLE_80211N[-1]

    def test_index_setter_validates(self):
        mcs = McsController()
        with pytest.raises(ValueError):
            mcs.index = 99
        mcs.index = 0
        assert mcs.phy_rate_bps == MCS_TABLE_80211N[0]

    def test_random_switching_changes_rate(self, sim, rng):
        mcs = McsController()
        mcs.start_random_switching(sim, period=1.0, rng=rng)
        rates = set()
        for step in range(12):
            sim.run(until=step * 1.0 + 0.5)
            rates.add(mcs.phy_rate_bps)
        assert len(rates) > 1

    def test_switching_respects_min_index(self, sim, rng):
        mcs = McsController()
        mcs.start_random_switching(sim, period=0.1, rng=rng, min_index=3)
        sim.run(until=5.0)
        assert mcs.index >= 3

    def test_stop_switching(self, sim, rng):
        mcs = McsController()
        mcs.start_random_switching(sim, period=0.1, rng=rng)
        sim.run(until=1.0)
        mcs.stop_switching()
        index = mcs.index
        sim.run(until=2.0)
        assert mcs.index == index

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            McsController(table=())


class TestWirelessChannel:
    def test_rate_from_trace(self):
        trace = BandwidthTrace([10e6, 20e6], interval=1.0)
        channel = WirelessChannel(trace)
        assert channel.rate_at(0.5) == 10e6
        assert channel.rate_at(1.5) == 20e6

    def test_mcs_caps_rate(self):
        trace = BandwidthTrace([100e6], interval=1.0)
        mcs = McsController(index=0)  # 6.5 Mbps PHY
        channel = WirelessChannel(trace, mcs=mcs, mac_efficiency=0.7)
        assert channel.rate_at(0.0) == pytest.approx(6.5e6 * 0.7)

    def test_rate_floor(self):
        trace = BandwidthTrace([0.0], interval=1.0)
        channel = WirelessChannel(trace.clipped(0.0))
        assert channel.rate_at(0.0) >= 1_000.0

    def test_invalid_efficiency(self):
        trace = BandwidthTrace([1e6])
        with pytest.raises(ValueError):
            WirelessChannel(trace, mac_efficiency=0.0)


class TestInterferenceModel:
    def test_airtime_share(self, rng):
        assert InterferenceModel(rng, 0).airtime_share == 1.0
        assert InterferenceModel(rng, 3).airtime_share == pytest.approx(0.25)

    def test_access_delay_grows_with_interferers(self, rng):
        quiet = InterferenceModel(rng.fork("a"), 0)
        busy = InterferenceModel(rng.fork("b"), 30)
        mean_quiet = sum(quiet.access_delay() for _ in range(500)) / 500
        mean_busy = sum(busy.access_delay() for _ in range(500)) / 500
        assert mean_busy > mean_quiet * 2

    def test_access_delay_positive(self, rng):
        model = InterferenceModel(rng, 10)
        assert all(model.access_delay() > 0 for _ in range(100))

    def test_negative_interferers_rejected(self, rng):
        with pytest.raises(ValueError):
            InterferenceModel(rng, -1)


class TestWirelessLink:
    def _link(self, sim, rate_bps=10e6, **kwargs):
        trace = BandwidthTrace([rate_bps], interval=10.0)
        queue = DropTailQueue(capacity_bytes=1_000_000)
        link = WirelessLink(sim, WirelessChannel(trace), queue, **kwargs)
        return link, queue

    def test_delivers_all_packets(self, sim, flow):
        link, _ = self._link(sim)
        got = []
        link.deliver_batch = got.extend
        for i in range(20):
            sim.schedule(0.0, lambda i=i: link.send(Packet(flow, 1200, seq=i)))
        sim.run(until=1.0)
        assert len(got) == 20

    def test_ampdu_groups_departures(self, sim, flow):
        link, queue = self._link(sim, max_ampdu_packets=4)
        departures = []
        queue.on_departure.append(
            lambda burst, q: departures.extend([sim.now] * len(burst)))
        for i in range(8):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        link.deliver_batch = lambda packets: None
        sim.run(until=1.0)
        # 8 packets in two AMPDUs of 4: two distinct departure instants.
        assert len(set(departures)) == 2
        assert link.txops == 2

    def test_ampdu_byte_cap(self, sim, flow):
        link, _ = self._link(sim, max_ampdu_packets=100,
                             max_ampdu_bytes=3000)
        link.deliver_batch = lambda packets: None
        for _ in range(6):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=1.0)
        # 3000 B cap: 2 packets of 1200 B fit per AMPDU -> 3 txops.
        assert link.txops == 3

    def test_throughput_tracks_channel_rate(self, sim, flow):
        link, _ = self._link(sim, rate_bps=2.4e6)  # 300 B/ms
        got = []
        link.deliver_batch = lambda packets: got.extend(
            [sim.now] * len(packets))
        for _ in range(200):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=0.5)
        # 0.5 s at 2.4 Mbps = 150 kB = ~125 packets (minus overhead).
        assert 80 <= len(got) <= 125

    def test_delivery_after_propagation(self, sim, flow):
        link, _ = self._link(sim, propagation_delay=0.004)
        got = []
        link.deliver_batch = lambda packets: got.extend(
            [sim.now] * len(packets))
        sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=1.0)
        assert got[0] >= 0.004

    def test_queue_overflow_drops(self, sim, flow):
        trace = BandwidthTrace([1e3], interval=10.0)  # ~dead channel
        queue = DropTailQueue(capacity_bytes=2400)
        link = WirelessLink(sim, WirelessChannel(trace), queue)
        link.deliver_batch = lambda packets: None
        for _ in range(5):
            sim.schedule(0.0, lambda: link.send(Packet(flow, 1200)))
        sim.run(until=0.1)
        assert queue.stats.dropped >= 2

    def test_interference_slows_delivery(self, sim, flow):
        rng = DeterministicRandom(3)
        trace = BandwidthTrace([10e6], interval=10.0)
        queue_a = DropTailQueue()
        quiet = WirelessLink(sim, WirelessChannel(trace), queue_a)
        quiet_times = []
        quiet.deliver_batch = lambda packets: quiet_times.extend(
            [sim.now] * len(packets))

        queue_b = DropTailQueue()
        noisy = WirelessLink(sim, WirelessChannel(trace), queue_b,
                             interference=InterferenceModel(rng, 30))
        noisy_times = []
        noisy.deliver_batch = lambda packets: noisy_times.extend(
            [sim.now] * len(packets))

        for _ in range(50):
            sim.schedule(0.0, lambda: quiet.send(Packet(flow, 1200)))
            sim.schedule(0.0, lambda: noisy.send(Packet(flow, 1200)))
        sim.run(until=5.0)
        assert noisy_times[-1] > quiet_times[-1]

    def test_invalid_ampdu_count(self, sim):
        trace = BandwidthTrace([1e6])
        with pytest.raises(ValueError):
            WirelessLink(sim, WirelessChannel(trace), DropTailQueue(),
                         max_ampdu_packets=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_ampdu_bytes": 0}, "max_ampdu_bytes"),
        ({"per_txop_overhead": -1e-4}, "per_txop_overhead"),
        ({"per_txop_overhead": float("nan")}, "per_txop_overhead"),
        ({"per_txop_overhead": float("inf")}, "per_txop_overhead")])
    def test_invalid_ampdu_bytes_and_overhead(self, sim, kwargs, match):
        trace = BandwidthTrace([1e6])
        with pytest.raises(ValueError, match=match):
            WirelessLink(sim, WirelessChannel(trace), DropTailQueue(),
                         **kwargs)
