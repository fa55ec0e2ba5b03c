"""Deterministic fault injection and graceful degradation (repro.faults).

The fault layer opens the scenario space the paper's evaluation leaves
out: what happens to the Zhuge AP when the wireless link itself
misbehaves. A pure-data :class:`FaultPlan` (embedded in
:class:`~repro.campaign.spec.ScenarioSpec`, so faulted cells
content-hash distinctly) describes typed fault windows; a
:class:`FaultInjector` scheduled on the simulator drives the links,
queues, and AP through their existing hooks; and an
:class:`EstimatorHealthWatchdog` demotes the AP to passthrough when its
predictions go stale, with hysteresis to re-engage.

Everything is a pure function of (spec, seed): the same plan produces
bit-identical fault schedules and summaries serially, in a worker pool,
or replayed from the campaign cache.
"""

from repro.faults.chaos import (CHAOS_ACTIONS, ChaosPlan, ChaosState,
                                ChaosWorker, build_chaos, corrupt_entry)
from repro.faults.injector import FaultInjector
from repro.faults.spec import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.watchdog import (STATE_DEGRADED, STATE_HEALTHY,
                                   EstimatorHealthWatchdog)

__all__ = [
    "CHAOS_ACTIONS",
    "ChaosPlan",
    "ChaosState",
    "ChaosWorker",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "EstimatorHealthWatchdog",
    "STATE_DEGRADED",
    "STATE_HEALTHY",
    "build_chaos",
    "corrupt_entry",
]
