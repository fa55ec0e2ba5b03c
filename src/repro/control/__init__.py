"""repro.control — the adaptive control plane over the Zhuge loop.

Two layers (ROADMAP item 3, the wanctl pattern):

* :class:`~repro.control.controller.ZhugeController` — a per-AP
  GREEN/YELLOW/SOFT_RED/RED state machine with multi-signal voting and
  dwell hysteresis, retuning live Zhuge parameters per state from the
  fixed :data:`~repro.control.spec.LADDER`.
* :class:`~repro.control.steering.SteeringDaemon` — a fleet loop that
  continuously re-homes RTC flows to the healthiest AP on multi-AP
  topologies.

Neither takes a configuration: their thresholds and dwell times are
constants of their modules. The one choice a scenario makes is the
:class:`~repro.control.spec.ControlSpec` on its
:class:`~repro.campaign.spec.ScenarioSpec`: present means controller
on, ``steering=True`` adds the steering daemon.
"""

from repro.control.controller import ZhugeController
from repro.control.spec import (CONTROL_STATES, GREEN, LADDER, RED, SOFT_RED,
                                YELLOW, ControlPolicy, ControlSpec)
from repro.control.steering import SteeringDaemon

__all__ = [
    "CONTROL_STATES", "GREEN", "YELLOW", "SOFT_RED", "RED", "LADDER",
    "ControlPolicy", "ControlSpec", "ZhugeController", "SteeringDaemon",
]
