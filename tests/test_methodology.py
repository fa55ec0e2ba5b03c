"""Appendix A methodology validation.

The paper measured available bandwidth by downloading a large file with
TCP CUBIC and computing the receiving rate in windows from packet
captures. We replicate that methodology inside the simulator and check
it recovers the ground-truth trace: the measured goodput per 200 ms
window should track the configured channel rate (minus MAC overheads)
whenever the channel is the bottleneck.
"""

import pytest

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.topology.builder import TopologyBuilder


def measure_abw_with_bulk_download(trace, duration=20.0):
    """The wget-style measurement: receiving rate in 200 ms windows."""
    spec = ScenarioSpec(trace=trace, protocol="tcp", cca="cubic",
                          app="bulk", duration=duration, seed=1,
                          wan_delay=0.010)
    builder = TopologyBuilder(spec)
    receiver = builder.video_apps[0][1]
    arrivals = []
    original = receiver.on_data

    def spy(packet):
        arrivals.append((builder.sim.now, packet.size))
        original(packet)

    builder._client_handlers[builder.video_apps[0][0].flow] = spy
    builder.sim.run(until=duration)
    # Window the received bytes.
    windows = {}
    for t, size in arrivals:
        windows.setdefault(int(t / 0.2), 0)
        windows[int(t / 0.2)] += size
    return {index: count * 8 / 0.2 for index, count in windows.items()}


class TestAbwMeasurementMethodology:
    def test_recovers_constant_rate(self):
        trace = TraceSpec.constant(12e6, 20.0)
        measured = measure_abw_with_bulk_download(trace)
        # Skip slow-start; average the steady windows.
        steady = [rate for index, rate in measured.items() if index >= 25]
        assert steady
        mean_measured = sum(steady) / len(steady)
        assert mean_measured == pytest.approx(12e6, rel=0.25)

    def test_tracks_rate_step(self):
        trace = TraceSpec.from_steps([(10.0, 16e6), (10.0, 4e6)],
                                     interval=0.01)
        measured = measure_abw_with_bulk_download(trace, duration=20.0)
        first = [r for i, r in measured.items() if 25 <= i < 48]
        second = [r for i, r in measured.items() if 60 <= i < 98]
        assert first and second
        mean_first = sum(first) / len(first)
        mean_second = sum(second) / len(second)
        assert mean_first > 2.5 * mean_second
        assert mean_second == pytest.approx(4e6, rel=0.4)
