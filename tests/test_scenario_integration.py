"""Integration tests: full scenarios end to end.

These exercise the whole stack (app -> transport -> AP -> wireless ->
client and back) on short runs, checking both plumbing (packets flow,
frames decode) and direction (Zhuge reduces tail latency vs baseline).
"""

import pytest

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.topology.builder import TopologyBuilder


def short_trace(seed=2):
    return TraceSpec.for_family("W1", duration=25, seed=seed)


class TestRtpPlumbing:
    @pytest.fixture(scope="class")
    def result(self):
        return TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                            protocol="rtp", duration=25)).run()

    def test_rtt_samples_collected(self, result):
        assert result.rtt.count > 200

    def test_frames_decoded(self, result):
        # 20 measured seconds at 24 fps, minus losses/skips.
        assert result.frames.count > 300

    def test_rtts_physically_plausible(self, result):
        # RTT can never undercut the 2x WAN propagation delay.
        assert min(result.rtt.rtts) >= 0.040

    def test_frame_delays_nonnegative(self, result):
        assert all(d >= 0 for d in result.frames.frame_delays)

    def test_goodput_positive(self, result):
        assert result.flows[0].goodput_bps > 500e3


class TestTcpPlumbing:
    @pytest.fixture(scope="class")
    def result(self):
        return TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                            protocol="tcp", cca="copa",
                                            duration=25)).run()

    def test_rtt_samples_collected(self, result):
        assert result.rtt.count > 500

    def test_frames_decoded(self, result):
        assert result.frames.count > 300

    def test_rtt_floor(self, result):
        assert min(result.rtt.rtts) >= 0.040


class TestZhugeImprovesTail:
    """The paper's headline claim, on a short trace."""

    @pytest.fixture(scope="class")
    def pair(self):
        trace = TraceSpec.for_family("W1", duration=40, seed=5)
        base = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                            ap_mode="none", duration=40)).run()
        zhuge = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                             ap_mode="zhuge", duration=40)).run()
        return base, zhuge

    def test_tail_latency_reduced(self, pair):
        base, zhuge = pair
        assert zhuge.rtt.tail_ratio() <= base.rtt.tail_ratio()

    def test_p99_rtt_reduced(self, pair):
        from repro.metrics.stats import percentile
        base, zhuge = pair
        assert (percentile(zhuge.rtt.rtts, 99)
                <= percentile(base.rtt.rtts, 99) * 1.05)

    def test_frames_still_flow(self, pair):
        _, zhuge = pair
        assert zhuge.frames.count > 500


class TestZhugeTcp:
    def test_tcp_zhuge_not_worse(self):
        trace = TraceSpec.for_family("W1", duration=30, seed=7)
        base = TopologyBuilder(ScenarioSpec(trace=trace, protocol="tcp",
                                            cca="copa", duration=30)).run()
        zhuge = TopologyBuilder(ScenarioSpec(trace=trace, protocol="tcp",
                                             cca="copa", ap_mode="zhuge",
                                             duration=30)).run()
        assert zhuge.rtt.tail_ratio() <= base.rtt.tail_ratio() + 0.01


class TestApModes:
    @pytest.mark.parametrize("mode,cca", [
        ("fastack", "copa"),
        ("abc", "abc"),
    ])
    def test_baseline_modes_run(self, mode, cca):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="tcp", cca=cca,
                                              ap_mode=mode, duration=20)).run()
        assert result.rtt.count > 100
        assert result.frames.count > 100

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                         ap_mode="bogus", duration=5)).run()

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError):
            TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                         protocol="sctp", duration=5)).run()


class TestCompetitorsAndInterferers:
    def test_competitors_degrade_rtc(self):
        trace = TraceSpec.for_family("W1", duration=20, seed=3)
        alone = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                             duration=20)).run()
        crowded = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                               duration=20, competitors=4)).run()
        assert (crowded.rtt.tail_ratio() >= alone.rtt.tail_ratio()
                or crowded.flows[0].goodput_bps < alone.flows[0].goodput_bps)

    def test_interferers_steal_airtime(self):
        trace = TraceSpec.for_family("W2", duration=20, seed=3)
        quiet = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                             duration=20)).run()
        noisy = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                             duration=20, interferers=30)).run()
        # 30 interferers leave ~1/31 of the airtime: goodput must drop.
        assert noisy.flows[0].goodput_bps < quiet.flows[0].goodput_bps

    def test_periodic_competitor_runs(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="rtp", duration=20,
                                              competitors=1,
                                              competitor_period=5.0)).run()
        assert result.rtt.count > 100


class TestBandwidthDropScenario:
    def test_drop_inflates_then_recovers(self):
        trace = TraceSpec.drop(30e6, k=10, drop_at=10.0, duration=25.0,
                               recover_at=15.0)
        result = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                              duration=25, warmup=2.0)).run()
        during = [r for t, r in zip(result.rtt.times, result.rtt.rtts)
                  if 10.0 <= t < 15.0]
        before = [r for t, r in zip(result.rtt.times, result.rtt.rtts)
                  if 5.0 <= t < 10.0]
        assert max(during) > max(before)


class TestDeterminism:
    def test_same_seed_same_result(self):
        trace = TraceSpec.for_family("W2", duration=15, seed=4)
        a = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                         duration=15, seed=11)).run()
        b = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                         duration=15, seed=11)).run()
        assert a.rtt.rtts == b.rtt.rtts
        assert a.frames.frame_delays == b.frames.frame_delays

    def test_zhuge_deterministic(self):
        trace = TraceSpec.for_family("W2", duration=15, seed=4)
        a = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                         ap_mode="zhuge", duration=15)).run()
        b = TopologyBuilder(ScenarioSpec(trace=trace, protocol="rtp",
                                         ap_mode="zhuge", duration=15)).run()
        assert a.rtt.rtts == b.rtt.rtts


class TestFairnessSetup:
    def test_two_rtc_flows(self):
        result = TopologyBuilder(ScenarioSpec(trace=short_trace(),
                                              protocol="rtp", duration=20,
                                              rtc_flows=2)).run()
        assert len(result.flows) == 2
        assert all(f.goodput_bps > 0 for f in result.flows)

    def test_partial_zhuge_mask(self):
        result = TopologyBuilder(ScenarioSpec(
            trace=short_trace(), protocol="rtp", duration=20,
            ap_mode="zhuge", rtc_flows=2, zhuge_flow_mask=(True, False))).run()
        assert len(result.flows) == 2


class TestPredictionRecording:
    def test_accuracy_pairs_collected(self):
        result = TopologyBuilder(ScenarioSpec(
            trace=short_trace(), protocol="rtp", ap_mode="zhuge",
            duration=15, record_predictions=True)).run()
        assert len(result.prediction_pairs) > 100
        for predicted, actual in result.prediction_pairs[:50]:
            assert predicted >= 0
            assert actual >= 0
