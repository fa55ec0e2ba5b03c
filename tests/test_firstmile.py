"""Tests for the first-mile (client-side) Zhuge extension (§6)."""


from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.experiments.firstmile import LocalFortuneLoop, run_first_mile


class TestFirstMilePlumbing:
    def test_baseline_runs(self):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=20,
                                                       seed=2), duration=20)
        result = run_first_mile(spec)
        assert result.rtt.count > 200
        assert result.frames.count > 200

    def test_client_zhuge_runs(self):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=20,
                                                       seed=2), duration=20)
        result = run_first_mile(spec, client_zhuge=True)
        assert result.rtt.count > 200
        assert result.frames.count > 200

    def test_deterministic(self):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=15,
                                                       seed=3), duration=15)
        a = run_first_mile(spec, client_zhuge=True)
        b = run_first_mile(spec, client_zhuge=True)
        assert a.rtt.rtts == b.rtt.rtts


class TestFirstMileBehaviour:
    def test_local_loop_reacts_to_uplink_drop(self):
        """A 10x uplink collapse: the zero-network-latency local loop
        must not degrade longer than the full server loop."""
        spec = ScenarioSpec(trace=TraceSpec.drop(20e6, k=10, drop_at=12.0,
                                                 duration=25.0),
                            duration=25, warmup=2.0, max_bps=8e6)
        base = run_first_mile(spec)
        zhuge = run_first_mile(spec, client_zhuge=True)
        base_dur = base.rtt.degradation_duration(0.200, start=12.0)
        zhuge_dur = zhuge.rtt.degradation_duration(0.200, start=12.0)
        assert zhuge_dur <= base_dur + 0.25

    def test_steady_state_bitrate_kept(self):
        spec = ScenarioSpec(trace=TraceSpec.for_family("W2", duration=30,
                                                       seed=4), duration=30)
        base = run_first_mile(spec)
        zhuge = run_first_mile(spec, client_zhuge=True)
        assert (zhuge.flows[0].mean_bitrate_bps
                >= 0.5 * base.flows[0].mean_bitrate_bps)


class TestLocalFortuneLoop:
    def test_synthetic_feedback_counted(self, sim, flow):
        from repro.cca.gcc import GccController
        from repro.core.fortune_teller import FortuneTeller
        from repro.net.queue import DropTailQueue
        from repro.transport.rtp import RtpSender

        queue = DropTailQueue()
        sender = RtpSender(sim, flow, GccController())
        sender.transmit = lambda p: None
        teller = FortuneTeller(sim, queue)
        loop = LocalFortuneLoop(sim, sender, teller, interval=0.040)
        packet = sender.send_packet()
        loop.on_packet_sent(packet)
        sim.run(until=0.1)
        assert loop.synthetic_feedbacks == 1
        loop.stop()
