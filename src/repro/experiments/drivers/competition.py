"""Flow-competition and wireless-interference drivers (Figs. 16, 17).

Fig. 16: CUBIC bulk flows share the RTC flow's AP queue; we measure
degradation durations versus the number of competitors.

Fig. 17: bulk stations on *other* APs contend for the channel; since
interference is continuous, the paper reports degradation *ratios*
(frequency) rather than per-event durations. Since the
:mod:`repro.topology` layer this runs on a genuine two-AP graph: the
RTC client associates with AP-A while bulk stations associate with
AP-B, every wireless edge sharing one contention domain, so AP-B's
traffic consumes AP-A's airtime the way a neighbouring network really
does. Counts beyond the explicitly simulated stations remain
statistical (the stochastic per-edge interferer model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.topology.presets import interference_topology

# Zhuge deploys on the system-default queue discipline, which is
# fq_codel on Linux/OpenWrt (§4.1): each flow gets its own sub-queue and
# the Fortune Teller reads the RTC flow's own statistics. The named
# baselines keep the disciplines the paper names them after.
SCHEMES = (
    ("Gcc+FIFO", dict(ap_mode="none", queue_kind="fifo")),
    ("Gcc+CoDel", dict(ap_mode="none", queue_kind="codel")),
    ("Gcc+Zhuge", dict(ap_mode="zhuge", queue_kind="fq_codel")),
)


@dataclass
class CompetitionRow:
    scheme: str
    flows: int
    rtt_degradation_s: float
    frame_delay_degradation_s: float
    low_fps_duration_s: float


@dataclass
class InterferenceRow:
    scheme: str
    interferers: int
    rtt_tail_ratio: float
    delayed_frame_ratio: float
    low_fps_ratio: float


def fig16_flow_competition(flow_counts=(0, 2, 5, 10),
                           duration: float = 40.0,
                           seed: int = 1, jobs: int = 0,
                           cache=None) -> list[CompetitionRow]:
    """Competitors join at t=10 s on a steady 30 Mbps channel; measure
    degradation durations after they arrive."""
    # 10 Mbps channel: a full 375 kB AP buffer is then 300 ms of
    # queueing, so CUBIC competitors can actually push the RTC
    # flow's RTT past the 200 ms threshold.
    grid = [(count, scheme, overrides)
            for count in flow_counts
            for scheme, overrides in SCHEMES]
    specs = [ScenarioSpec(trace=TraceSpec.constant(10e6, duration,
                                                   name="steady10"),
                          protocol="rtp", duration=duration, seed=seed,
                          competitors=count, warmup=2.0, **overrides)
             for count, _, overrides in grid]
    rows = []
    for (count, scheme, _), summary in zip(
            grid, run_specs(specs, jobs=jobs, cache=cache)):
        flow = summary.flows[0]
        rows.append(CompetitionRow(
            scheme=scheme, flows=count,
            rtt_degradation_s=flow.rtt.degradation_duration(0.200,
                                                            start=5.0),
            frame_delay_degradation_s=flow.frames
            .delay_degradation_duration(0.400, start=5.0),
            low_fps_duration_s=flow.frames.low_fps_duration(
                duration - 5.0, start=5.0),
        ))
    return rows


def fig17_interference(interferer_counts=(0, 5, 10, 20, 40),
                       duration: float = 40.0,
                       seed: int = 1, jobs: int = 0,
                       cache=None) -> list[InterferenceRow]:
    """Continuous channel contention on a two-AP graph; report
    degradation frequencies."""
    grid = [(count, scheme, overrides)
            for count in interferer_counts
            for scheme, overrides in SCHEMES]
    specs = [ScenarioSpec(trace=TraceSpec.for_family("W2",
                                                     duration=duration,
                                                     seed=seed),
                          protocol="rtp", duration=duration, seed=seed,
                          interferers=count,
                          topology=interference_topology(
                              interferers=count, **overrides),
                          **overrides)
             for count, _, overrides in grid]
    rows = []
    for (count, scheme, _), summary in zip(
            grid, run_specs(specs, jobs=jobs, cache=cache)):
        flow = summary.flows[0]
        warmup = summary.spec.warmup
        rows.append(InterferenceRow(
            scheme=scheme, interferers=count,
            rtt_tail_ratio=flow.rtt.tail_ratio(),
            delayed_frame_ratio=flow.frames.delayed_ratio(),
            low_fps_ratio=flow.frames.low_fps_ratio(
                duration - warmup, start=warmup),
        ))
    return rows
