"""Tests for scenario-builder internals and options."""

import pytest

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.topology.builder import TopologyBuilder


def short_trace(seed=2):
    return TraceSpec.for_family("W2", duration=15, seed=seed)


class TestOptions:
    def test_paced_sender_runs(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="rtp", duration=15,
                                              paced_sender=True)).run()
        assert result.frames.count > 150

    def test_paced_reduces_burstiness(self):
        """Paced arrivals spread packets: fewer per 5 ms bucket."""
        counts = {}
        for paced in (False, True):
            spec = ScenarioSpec(trace=TraceSpec.constant(30e6, 10),
                                  protocol="rtp", duration=10,
                                  paced_sender=paced)
            builder = TopologyBuilder(spec)
            arrivals = []
            builder.downlink_queue.on_arrival.append(
                lambda p, q: arrivals.append(builder.sim.now))
            builder.sim.run(until=10)
            counts[paced] = len({int(t / 0.005) for t in arrivals})
        # Pacing spreads the same packets over many more 5 ms buckets.
        assert counts[True] > counts[False] * 1.5

    def test_cellular_link_kind(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="rtp", duration=15,
                                              link_kind="cellular")).run()
        assert result.frames.count > 150

    def test_invalid_link_kind(self):
        with pytest.raises(ValueError):
            ScenarioSpec(trace=short_trace(), link_kind="satellite",
                         duration=5)

    def test_mcs_switching_runs(self):
        result = TopologyBuilder(ScenarioSpec(
            trace=TraceSpec.constant(60e6, 20), protocol="rtp",
            duration=20, mcs_switch_period=5.0)).run()
        assert result.frames.count > 200

    def test_nada_over_rtp_scenario(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="rtp", cca="nada",
                                              duration=15)).run()
        assert result.frames.count > 150

    def test_scream_over_rtp_scenario(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="rtp", cca="scream",
                                              duration=15)).run()
        assert result.frames.count > 150


class TestResultFields:
    def test_measured_duration(self):
        spec = ScenarioSpec(trace=short_trace(), duration=15,
                              warmup=5.0)
        result = TopologyBuilder(spec).run()
        assert result.measured_duration() == 10.0

    def test_events_processed_positive(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              duration=15)).run()
        assert result.events_processed > 1000
        assert result.ap_packets > 100


class TestZhugeFlowMask:
    def test_mask_limits_optimization(self):
        spec = ScenarioSpec(trace=short_trace(), protocol="rtp",
                              ap_mode="zhuge", duration=5, rtc_flows=2,
                              zhuge_flow_mask=(True, False))
        builder = TopologyBuilder(spec)
        flows = [sender.flow for sender, _, _ in builder.video_apps]
        assert flows[0] in builder.zhuge.updaters
        assert flows[1] not in builder.zhuge.updaters
