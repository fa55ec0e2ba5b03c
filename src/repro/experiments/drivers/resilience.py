"""Resilience driver: graceful degradation under injected faults.

Not a paper figure — the paper evaluates Zhuge on healthy links. This
driver answers the robustness question the deployment section raises:
when the wireless link blacks out and the AP's estimator state goes
stale (or is wiped by an AP reset), does the Zhuge AP degrade to
*no worse than* a passthrough AP, and how fast does the watchdog
demote/promote it?

Each cell runs one TCP flow through a blackout of configurable length
followed by an estimator reset at recovery, across four schemes:
passthrough (no AP mangling), FastAck, Zhuge with the health watchdog,
and Zhuge with the watchdog disabled (the ablation that shows what the
watchdog buys). Cells run through the campaign runner, so sweeps are
cached and parallelizable like every other figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.campaign import ScenarioSpec, TraceSpec, run_specs
from repro.experiments.drivers.traces_eval import seed_split
from repro.faults.spec import FaultPlan, FaultSpec
from repro.metrics.stats import percentile

#: Blackouts start here — well past warmup, so the estimator window is
#: fully primed (worst case for stale predictions).
FAULT_START = 10.0
#: Fault-window metrics cover [start, start + length + RECOVERY_WINDOW]
#: so they include the recovery transient, not just the outage itself.
RECOVERY_WINDOW = 5.0

#: (row label, ap_mode, watchdog_enabled).
SCHEMES = (
    ("passthrough", "none", True),
    ("fastack", "fastack", True),
    ("zhuge", "zhuge", True),
    ("zhuge-nodog", "zhuge", False),
)


def blackout_plan(start: float, length: float, *, reset: bool = True,
                  watchdog: bool = True, seed: int = 1) -> FaultPlan:
    """Blackout of ``length`` seconds, then (optionally) an AP reset.

    The reset at recovery models the realistic failure: the client
    re-associates and the AP's per-flow estimator state is gone exactly
    when traffic resumes.
    """
    faults = [FaultSpec(kind="blackout", start=start, duration=length)]
    if reset:
        faults.append(FaultSpec(kind="ap_reset", start=start + length))
    return FaultPlan(faults=tuple(faults), seed=seed,
                     watchdog_enabled=watchdog)


@dataclass
class ResilienceRow:
    """One (scheme, blackout length) cell, aggregated over seeds."""

    scheme: str
    blackout_s: float
    steady_p50_ms: float     # whole measured run
    fault_p50_ms: float      # fault window + recovery only
    fault_p99_ms: float
    fault_samples: int
    demote_at: Optional[float] = None   # first watchdog demotion
    promote_at: Optional[float] = None  # first re-promotion after it


def resilience_specs(blackout_lengths: tuple[float, ...],
                     duration: float, seeds: tuple[int, ...],
                     protocol: str = "tcp", cca: str = "copa",
                     family: str = "W2") -> list[ScenarioSpec]:
    """The full sweep, one spec per (scheme, blackout length, seed)."""
    specs = []
    for _, ap_mode, watchdog in SCHEMES:
        for length in blackout_lengths:
            for seed in seeds:
                specs.append(ScenarioSpec(
                    trace=TraceSpec.for_family(family, duration=duration,
                                               seed=seed),
                    protocol=protocol, cca=cca, ap_mode=ap_mode,
                    duration=duration, seed=seed,
                    faults=blackout_plan(FAULT_START, length,
                                         watchdog=watchdog, seed=seed)))
    return specs


def _first_transition(transitions, state: str,
                      after: float = 0.0) -> Optional[float]:
    for when, target, _reason in transitions:
        if target == state and when >= after:
            return when
    return None


def fig_resilience(blackout_lengths: tuple[float, ...] = (0.5, 1.0, 2.0),
                   duration: float = 25.0,
                   seeds: tuple[int, ...] = (1,),
                   protocol: str = "tcp", cca: str = "copa",
                   jobs: int = 0, cache=None, timeout=None,
                   retries: int = 1) -> list[ResilienceRow]:
    """Run the sweep and aggregate per (scheme, blackout length)."""
    specs = resilience_specs(blackout_lengths, duration, seeds,
                             protocol=protocol, cca=cca)
    summaries = run_specs(specs, jobs=jobs, cache=cache,
                          timeout=timeout, retries=retries)

    grid = [(label, length)
            for label, _ap_mode, _watchdog in SCHEMES
            for length in blackout_lengths]
    rows = []
    for (label, length), chunk in zip(grid, seed_split(summaries, seeds)):
        steady: list[float] = []
        window: list[float] = []
        demote_at = promote_at = None
        lo, hi = FAULT_START, FAULT_START + length + RECOVERY_WINDOW
        for summary in chunk:
            rtt = summary.rtt
            steady.extend(rtt.rtts)
            window.extend(v for t, v in zip(rtt.times, rtt.rtts)
                          if lo <= t <= hi)
            if demote_at is None:
                demote_at = _first_transition(
                    summary.watchdog_transitions, "degraded")
                if demote_at is not None:
                    promote_at = _first_transition(
                        summary.watchdog_transitions, "healthy",
                        after=demote_at)
        rows.append(ResilienceRow(
            scheme=label,
            blackout_s=length,
            steady_p50_ms=(percentile(steady, 50) * 1000
                           if steady else 0.0),
            fault_p50_ms=(percentile(window, 50) * 1000
                          if window else 0.0),
            fault_p99_ms=(percentile(window, 99) * 1000
                          if window else 0.0),
            fault_samples=len(window),
            demote_at=demote_at,
            promote_at=promote_at,
        ))
    return rows
