"""Control driver: adaptive per-AP control + fleet steering under storms.

Not a paper figure — the paper runs Zhuge with one fixed parameter set
on healthy links. This driver answers the deployment question the
control layer (ROADMAP item 3) exists for: under a rate-crash/blackout
storm, does a :class:`~repro.control.controller.ZhugeController`
retuning the live Zhuge parameters beat the same AP with its static
configuration? And on a two-AP fleet, does the
:class:`~repro.control.steering.SteeringDaemon` re-homing the client
to the healthiest AP beat leaving it parked on the faulted one?

Both comparisons aggregate *pooled* fault-window samples across seeds
(one seed-ordered chunk per scheme, split like every figure's): the
fault window of each storm is the union of every windowed fault's
``[start, end + RECOVERY_WINDOW]`` span, so the metrics cover the
outages and their recovery transients, not the calm in between.

The static baseline runs with the watchdog disabled: the PR 4 watchdog
demotion is itself a (one-knob) adaptation, and the question here is
what the full control loop buys over a genuinely static configuration.
Cells run through the campaign runner, so sweeps are cached and
parallelizable like every other figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.control import ControlSpec
from repro.experiments.drivers.resilience import (fault_windows,
                                                  window_samples)
from repro.experiments.drivers.traces_eval import seed_split
from repro.faults.spec import FaultPlan
from repro.metrics.stats import percentile, quantiles
from repro.topology.presets import roaming_topology

#: Default per-AP storm: two rate crashes bracketing a blackout, each
#: outage followed by an AP reset (the client re-associates and the
#: estimator state is gone exactly when traffic resumes).
STORM = ("crash@8+2*0.05,reset@10,blackout@14+1,reset@15,"
         "crash@19+2*0.08,reset@21")
#: Default storm duration (covers the last recovery window).
DURATION = 26.0

#: Default fleet storm: every fault aimed at AP-A's downlink edge of
#: the roaming topology; AP-B stays healthy the whole time.
FLEET_STORM = "blackout@8+2/a-down,crash@14+3*0.05/a-down"
FLEET_DURATION = 24.0

#: Fault-window metrics cover [start, end + RECOVERY_WINDOW] per fault
#: so they include each recovery transient, not just the outage.
RECOVERY_WINDOW = 2.0

#: (row label, ControlSpec) per per-AP scheme; ``None`` is static Zhuge.
SCHEMES = (
    ("static", None),
    ("controller", ControlSpec()),
)

FLEET_SCHEMES = (
    ("no-steering", ControlSpec()),
    ("steering", ControlSpec(steering=True)),
)


def storm_plan(storm: str = STORM, seed: int = 1) -> FaultPlan:
    """Parse ``storm`` with the watchdog disabled (see module docstring)."""
    return FaultPlan.parse(storm, seed=seed, watchdog_enabled=False)


def control_specs(seeds: tuple[int, ...], duration: float = DURATION,
                  storm: str = STORM, family: str = "W2",
                  protocol: str = "rtp", cca: str = "gcc"
                  ) -> list[ScenarioSpec]:
    """Per-AP sweep: one spec per (scheme, seed), scheme-major order."""
    specs = []
    for _, control in SCHEMES:
        for seed in seeds:
            specs.append(ScenarioSpec(
                trace=TraceSpec.for_family(family, duration=duration,
                                           seed=seed),
                protocol=protocol, cca=cca, ap_mode="zhuge",
                duration=duration, seed=seed,
                faults=storm_plan(storm, seed=seed),
                control=control))
    return specs


def fleet_specs(seeds: tuple[int, ...], duration: float = FLEET_DURATION,
                storm: str = FLEET_STORM, family: str = "W2",
                protocol: str = "rtp", cca: str = "gcc"
                ) -> list[ScenarioSpec]:
    """Two-AP sweep on the roaming topology, scheme-major order."""
    specs = []
    for _, control in FLEET_SCHEMES:
        for seed in seeds:
            specs.append(ScenarioSpec(
                trace=TraceSpec.for_family(family, duration=duration,
                                           seed=seed),
                protocol=protocol, cca=cca, ap_mode="zhuge",
                duration=duration, seed=seed,
                topology=roaming_topology(queue_kind="droptail"),
                faults=storm_plan(storm, seed=seed),
                control=control))
    return specs


@dataclass
class ControlRow:
    """One per-AP scheme, pooled over seeds."""

    scheme: str
    steady_p50_ms: float     # whole measured run
    fault_p50_ms: float      # fault windows + recovery only
    fault_p99_ms: float
    fault_samples: int
    transitions: int = 0              # controller state changes (all APs)
    first_reaction: Optional[float] = None  # first transition timestamp


@dataclass
class FleetRow:
    """One fleet scheme on the two-AP topology, pooled over seeds."""

    scheme: str
    fault_p50_ms: float
    fault_p99_ms: float
    fault_samples: int
    moves: int = 0           # steering re-homes across all seeds


def fig_control(seeds: tuple[int, ...] = (1, 2),
                duration: float = DURATION, storm: str = STORM,
                jobs: int = 0, cache=None, timeout=None,
                retries: int = 1) -> tuple[list[ControlRow],
                                           list[FleetRow]]:
    """Run both sweeps (the fleet one on ``FLEET_STORM`` for
    ``FLEET_DURATION``) and aggregate pooled per scheme."""
    specs = (control_specs(seeds, duration, storm)
             + fleet_specs(seeds, FLEET_DURATION, FLEET_STORM))
    summaries = run_specs(specs, jobs=jobs, cache=cache,
                          timeout=timeout, retries=retries)

    chunks = seed_split(summaries, seeds)
    spans = fault_windows(storm_plan(storm), RECOVERY_WINDOW)
    rows = []
    for (label, _control), chunk in zip(SCHEMES, chunks):
        steady: list[float] = []
        window: list[float] = []
        transitions = 0
        first: Optional[float] = None
        for summary in chunk:
            steady.extend(summary.rtt.rtts)
            window.extend(window_samples(summary, spans))
            transitions += len(summary.control_transitions)
            if summary.control_transitions:
                when = summary.control_transitions[0][0]
                first = when if first is None else min(first, when)
        fault_p50, fault_p99 = (quantiles(window, (50, 99)) if window
                                else (0.0, 0.0))
        rows.append(ControlRow(
            scheme=label,
            steady_p50_ms=percentile(steady, 50) * 1000 if steady else 0.0,
            fault_p50_ms=fault_p50 * 1000,
            fault_p99_ms=fault_p99 * 1000,
            fault_samples=len(window),
            transitions=transitions,
            first_reaction=first))

    fleet_rows = []
    fleet_spans = fault_windows(storm_plan(FLEET_STORM), RECOVERY_WINDOW)
    for (label, _control), chunk in zip(FLEET_SCHEMES,
                                        chunks[len(SCHEMES):]):
        window = []
        moves = 0
        for summary in chunk:
            window.extend(window_samples(summary, fleet_spans))
            moves += len(summary.steering_moves)
        fault_p50, fault_p99 = (quantiles(window, (50, 99)) if window
                                else (0.0, 0.0))
        fleet_rows.append(FleetRow(
            scheme=label,
            fault_p50_ms=fault_p50 * 1000,
            fault_p99_ms=fault_p99 * 1000,
            fault_samples=len(window),
            moves=moves))
    return rows, fleet_rows
