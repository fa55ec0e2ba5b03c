"""Integration tests: video over QUIC through the full scenario."""

import pytest

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.topology.builder import TopologyBuilder


class TestQuicScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return TopologyBuilder(ScenarioSpec(
            trace=TraceSpec.for_family("W1", 25, seed=2), protocol="quic",
            cca="copa", duration=25)).run()

    def test_rtt_collected(self, result):
        assert result.rtt.count > 500

    def test_frames_decoded(self, result):
        assert result.frames.count > 300

    def test_goodput(self, result):
        assert result.flows[0].goodput_bps > 1e6

    def test_rtt_floor(self, result):
        assert min(result.rtt.rtts) >= 0.040


class TestQuicZhuge:
    def test_zhuge_over_quic_runs_and_not_worse(self):
        trace = TraceSpec.for_family("W1", duration=25, seed=5)
        base = TopologyBuilder(ScenarioSpec(trace=trace, protocol="quic",
                                            cca="copa", duration=25)).run()
        zhuge = TopologyBuilder(ScenarioSpec(trace=trace, protocol="quic",
                                             cca="copa", ap_mode="zhuge",
                                             duration=25)).run()
        assert zhuge.rtt.tail_ratio() <= base.rtt.tail_ratio() + 0.02
        assert zhuge.frames.count >= base.frames.count * 0.8

    def test_bbr_over_quic(self):
        result = TopologyBuilder(ScenarioSpec(
            trace=TraceSpec.for_family("W2", 20, seed=3), protocol="quic",
            cca="bbr", duration=20)).run()
        assert result.frames.count > 200

    def test_deterministic(self):
        trace = TraceSpec.for_family("W2", duration=15, seed=4)
        a = TopologyBuilder(ScenarioSpec(trace=trace, protocol="quic",
                                         cca="copa", duration=15)).run()
        b = TopologyBuilder(ScenarioSpec(trace=trace, protocol="quic",
                                         cca="copa", duration=15)).run()
        assert a.rtt.rtts == b.rtt.rtts
