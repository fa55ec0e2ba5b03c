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

from repro.campaign.spec import ScenarioSpec, TraceSpec
from repro.experiments.drivers.traces_eval import RTP_SCHEMES
from repro.topology.builder import TopologyBuilder


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
    rows = []
    for scenario in scenarios:
        for scheme, overrides in RTP_SCHEMES:
            rtt_tails, delayed, bitrates = [], [], []
            for seed in seeds:
                spec = _scenario_config(scenario, duration, seed,
                                        dict(overrides))
                result = TopologyBuilder(spec).run()
                rtt_tails.append(result.rtt.tail_ratio())
                delayed.append(result.frames.delayed_ratio())
                bitrates.append(result.flows[0].mean_bitrate_bps)
            count = len(seeds)
            rows.append(TestbedRow(
                scenario=scenario, scheme=scheme,
                rtt_tail_ratio=sum(rtt_tails) / count,
                delayed_frame_ratio=sum(delayed) / count,
                mean_bitrate_bps=sum(bitrates) / count,
            ))
    return rows
