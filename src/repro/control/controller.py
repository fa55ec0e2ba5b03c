"""Per-AP adaptive controller: the slow loop around the Zhuge loop.

Zhuge itself is the shortest control loop — per-packet predictions and
per-ACK feedback shaping at the AP. The :class:`ZhugeController` closes
a second, deliberately slower loop *around* it (ROADMAP item 3, the
wanctl pattern): every :data:`CHECK_INTERVAL` it collects one severity vote
per signal and walks an explicit GREEN/YELLOW/SOFT_RED/RED state
machine with dwell-time hysteresis, retuning the live Zhuge parameters
through :meth:`~repro.core.zhuge_ap.ZhugeAP.apply_policy` on every
transition. RED rides the AP's existing passthrough demotion.

Signals and their votes (severity 0..3):

=========  =============================================================
signal     vote
=========  =============================================================
health     watchdog degraded with evidence (open predictions or joined
           errors) -> 2; 3 only when additionally *stale on an
           unimpaired link* (deliveries stopped for no visible reason —
           the client vanished). An idle, evidence-free watchdog scores
           0 so an unused AP reads GREEN.
accuracy   P95 of the watchdog's windowed |predicted - actual| errors
           (pairs of the AP's :mod:`~repro.core.prediction_join`):
           above :data:`P95_SOFT_RED` -> 2, above :data:`P95_YELLOW`
           -> 1. Needs :data:`MIN_ERROR_SAMPLES` joins to vote.
queue      downlink occupancy: above :data:`QUEUE_SOFT_RED` -> 2, above
           :data:`QUEUE_YELLOW` -> 1.
link       blocked while the edge is enabled, or channel
           ``fault_scale`` under :data:`LINK_SCALE_SOFT_RED` -> 2 (known
           outage / rate crash: keep fast-tracking, never surrender
           the loop). Disabled edges abstain.
=========  =============================================================

The target state is the highest vote. A worse target must persist
:data:`ESCALATE_AFTER` before the transition fires, a better one
:data:`RELAX_AFTER` — dwell hysteresis on every edge, so a flapping
signal cannot flap the policy. When the controller attaches it takes
over the watchdog's demote/promote callbacks: the watchdog keeps
running as a *sensor*, but the only actuator is the state's rung of
:data:`~repro.control.spec.LADDER`.
"""

from __future__ import annotations

from typing import Optional

from repro.control.spec import (CONTROL_STATES, GREEN, LADDER, RED,
                                STATE_LEVEL)
from repro.faults.watchdog import STATE_DEGRADED
from repro.metrics.stats import percentile
from repro.sim.engine import Simulator, Timer

#: Seconds between votes.
CHECK_INTERVAL = 0.1
#: Dwell a worse target must hold before the controller escalates.
ESCALATE_AFTER = 0.2
#: Dwell a better target must hold before the controller relaxes.
RELAX_AFTER = 1.0
#: Joined prediction errors the accuracy signal needs before it votes.
MIN_ERROR_SAMPLES = 8
#: P95 prediction error (s) above which accuracy votes YELLOW / SOFT_RED.
P95_YELLOW = 0.08
P95_SOFT_RED = 0.2
#: Downlink occupancy above which the queue votes YELLOW / SOFT_RED.
QUEUE_YELLOW = 0.5
QUEUE_SOFT_RED = 0.85
#: Channel ``fault_scale`` under which the link reads as impaired.
LINK_SCALE_SOFT_RED = 0.5


class ZhugeController:
    """GREEN/YELLOW/SOFT_RED/RED state machine over one Zhuge AP."""

    def __init__(self, sim: Simulator, zhuge, edge=None, trace=None,
                 track: str = "control"):
        self.sim = sim
        self.zhuge = zhuge
        #: Edge runtime handle (duck-typed: ``enabled``, ``link.blocked``,
        #: ``queue``, ``channel.fault_scale``); ``None`` means no
        #: link-level signal (bench harnesses, bare APs).
        self.edge = edge
        self.trace = trace
        self.track = track
        self.state = GREEN
        #: (time, new_state, reason) for every transition, in order.
        self.transitions: list[tuple[float, str, str]] = []
        #: Latest per-signal votes, for tests and trace events.
        self.last_votes: dict[str, int] = {}
        self._proposed: Optional[str] = None
        self._proposed_since = 0.0
        self._proposed_reason = ""
        # The controller owns the actuation: the watchdog stays attached
        # as a sensor but its direct demote/promote callbacks are
        # detached so policy application is the single writer of
        # passthrough state. A watchdog the fault plan armed is adopted;
        # otherwise the AP gets one.
        if zhuge.watchdog is None:
            zhuge.enable_watchdog()
        self.watchdog = zhuge.watchdog
        self.watchdog.on_demote = None
        self.watchdog.on_promote = None
        zhuge.apply_policy(LADDER[GREEN])
        self._timer = Timer(sim, CHECK_INTERVAL, self._check)

    # -- signal voting -------------------------------------------------------

    def _vote_health(self, link_impaired: bool) -> int:
        dog = self.watchdog
        if dog.state != STATE_DEGRADED:
            return 0
        # Degraded with no open predictions and no joined errors means
        # "no traffic since the last reset" — an idle AP, not a sick
        # one. Abstain so steering can still route back to it.
        if len(dog.join) == 0 and not dog.recent_errors():
            return 0
        # Stale on an *unimpaired* link is the give-up signal:
        # deliveries stopped for no reason the controller can see (the
        # client vanished), so the predictions describe nothing — RED.
        # Stale behind a visible blackout or rate crash is expected,
        # and inaccuracy calls for faster tracking, not surrender:
        # SOFT_RED keeps the short AP-side feedback loop engaged — the
        # only loop that still reaches the sender while the client path
        # is down.
        return 3 if dog.stale and not link_impaired else 2

    def _vote_accuracy(self) -> int:
        errors = self.watchdog.recent_errors()
        if len(errors) < MIN_ERROR_SAMPLES:
            return 0
        p95 = percentile(errors, 95)
        if p95 > P95_SOFT_RED:
            return 2
        if p95 > P95_YELLOW:
            return 1
        return 0

    def _vote_queue(self) -> int:
        queue = (self.edge.queue if self.edge is not None
                 else self.zhuge.downlink_queue)
        capacity = getattr(queue, "capacity_bytes", 0)
        if not capacity:
            return 0
        occupancy = queue.byte_length / capacity
        if occupancy > QUEUE_SOFT_RED:
            return 2
        if occupancy > QUEUE_YELLOW:
            return 1
        return 0

    def _link_impaired(self) -> bool:
        """True while the edge shows a visible outage (block or crash)."""
        edge = self.edge
        if edge is None or not edge.enabled:
            return False
        if getattr(edge.link, "blocked", False):
            return True
        channel = getattr(edge, "channel", None)
        scale = getattr(channel, "fault_scale", 1.0) if channel else 1.0
        return scale < LINK_SCALE_SOFT_RED

    def _vote_link(self, link_impaired: bool) -> int:
        # A visible outage (blocked link, crashed rate) is a *known*
        # condition: vote SOFT_RED to track it with tight windows,
        # never RED — passthrough would silence the AP-synthesized
        # feedback, the one signal a blacked-out client cannot deliver
        # itself.
        return 2 if link_impaired else 0

    def _check(self) -> None:
        now = self.sim.now
        self._enforce_sojourn(now)
        impaired = self._link_impaired()
        votes = {"health": self._vote_health(impaired),
                 "accuracy": self._vote_accuracy(),
                 "queue": self._vote_queue(),
                 "link": self._vote_link(impaired)}
        self.last_votes = votes
        target = CONTROL_STATES[max(votes.values())]
        if target == self.state:
            self._proposed = None
            return
        if target != self._proposed:
            self._proposed = target
            self._proposed_since = now
            self._proposed_reason = ",".join(
                f"{name}={vote}" for name, vote in votes.items() if vote)
            self._proposed_reason = self._proposed_reason or "recovered"
        dwell = (ESCALATE_AFTER
                 if STATE_LEVEL[target] > STATE_LEVEL[self.state]
                 else RELAX_AFTER)
        if now - self._proposed_since >= dwell:
            self._transition(target, self._proposed_reason)

    def _enforce_sojourn(self, now: float) -> None:
        """Shed head packets older than the active policy's bound.

        ``apply_policy`` trims to the byte clamp once on entry; the
        sojourn ceiling instead needs *continuous* enforcement — during
        a blackout the head never drains, so packets admitted after the
        entry trim would otherwise age for the whole outage and drain
        as a multi-second tail afterwards.
        """
        policy = self.zhuge.policy
        if policy is None or policy.max_sojourn is None:
            return
        queue = getattr(self.zhuge, "downlink_queue", None)
        if queue is not None:
            queue.trim_aged(now, policy.max_sojourn, "control-sojourn")

    def _transition(self, state: str, reason: str) -> None:
        self.state = state
        self.transitions.append((self.sim.now, state, reason))
        self._proposed = None
        policy = LADDER[state]
        self.zhuge.apply_policy(policy)
        if self.trace is not None:
            self.trace.control_state(self.track, state, reason)
            self.trace.control_policy(self.track, state, policy.window,
                                      policy.passthrough)

    # -- steering interface --------------------------------------------------

    @property
    def level(self) -> int:
        """Severity level of the current state (GREEN=0 .. RED=3)."""
        return STATE_LEVEL[self.state]

    def stop(self) -> None:
        self._timer.stop()


__all__ = ["ZhugeController", "CONTROL_STATES", "GREEN", "RED"]
