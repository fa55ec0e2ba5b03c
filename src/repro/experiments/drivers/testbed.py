"""Testbed-scenario drivers (Fig. 18): scp / mcs / raw.

The paper's §7.5 testbed streams WebRTC video through an OpenWrt AP and
evaluates three scenarios; we reproduce them with the same scenario
drivers on the simulated AP:

* ``scp``  — a bulk transfer toggles on/off every 30 s,
* ``mcs``  — the link-layer modulation scheme is re-picked randomly
  every 30 s,
* ``raw``  — a crowded-office channel (trace family W2), no extra load.

Metrics: tail-RTT ratio, delayed-frame ratio, and the steady-state
bitrate (Fig. 18c shows Zhuge keeps the bitrate, so the improvement is
not bought with rate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.experiments.drivers.traces_eval import RTP_SCHEMES, seed_split


@dataclass
class TestbedRow:
    scenario: str
    scheme: str
    rtt_tail_ratio: float
    delayed_frame_ratio: float
    mean_bitrate_bps: float


def _scenario_config(scenario: str, duration: float, seed: int,
                     overrides: dict) -> ScenarioSpec:
    base = dict(duration=duration, seed=seed, **overrides)
    if scenario == "scp":
        return ScenarioSpec(
            trace=TraceSpec.constant(30e6, duration, name="steady30"),
            competitors=1, competitor_period=15.0, **base)
    if scenario == "mcs":
        return ScenarioSpec(
            trace=TraceSpec.constant(60e6, duration, name="steady60"),
            mcs_switch_period=10.0, **base)
    if scenario == "raw":
        return ScenarioSpec(
            trace=TraceSpec.for_family("W2", duration=duration, seed=seed),
            **base)
    raise ValueError(f"unknown testbed scenario {scenario!r}")


def fig18_testbed(scenarios=("scp", "mcs", "raw"), duration: float = 60.0,
                  seeds: tuple[int, ...] = (1, 2)) -> list[TestbedRow]:
    """One row per (scenario, scheme): each metric averaged over seeds."""
    grid = [(scenario, scheme, overrides)
            for scenario in scenarios
            for scheme, overrides in RTP_SCHEMES]
    specs = [_scenario_config(scenario, duration, seed, dict(overrides))
             for scenario, _, overrides in grid
             for seed in seeds]
    summaries = run_specs(specs)
    rows = []
    for (scenario, scheme, _), chunk in zip(grid,
                                            seed_split(summaries, seeds)):
        count = len(chunk)
        rows.append(TestbedRow(
            scenario=scenario, scheme=scheme,
            rtt_tail_ratio=sum(s.rtt.tail_ratio() for s in chunk) / count,
            delayed_frame_ratio=sum(s.frames.delayed_ratio()
                                    for s in chunk) / count,
            mean_bitrate_bps=sum(s.flows[0].mean_bitrate_bps
                                 for s in chunk) / count,
        ))
    return rows
