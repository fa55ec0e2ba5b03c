"""Estimator-health watchdog: demote Zhuge to passthrough when blind.

The Zhuge AP is only safe to keep in the loop while its Fortune-Teller
predictions track reality. After a blackout, estimator reset, or roam,
the prediction error spikes (or deliveries stop arriving at all) and a
mis-timed ACK does active harm — the sender reacts to a congestion
signal describing a link that no longer exists. The watchdog reads the
AP's :class:`~repro.core.prediction_join.PredictionJoin` (predictions
against wireless deliveries) and drives a two-state machine with
hysteresis:

.. code-block:: text

            unhealthy for >= demote_after
   HEALTHY ------------------------------> DEGRADED
           <------------------------------
            healthy for >= promote_after
            AND >= min_samples fresh joins

"Unhealthy" means either *stale* (an un-joined prediction older than
``stale_after`` — deliveries stopped) or *inaccurate* (mean absolute
error of joins inside ``health_window`` above ``error_threshold``).
:meth:`notify_reset` short-circuits the demote delay: an estimator
reset is a ground-truth signal that predictions are garbage *now*.

The watchdog only observes and decides; the actual fallback (stop
delaying ACKs, stop synthesizing TWCC) is the AP's ``on_demote`` /
``on_promote`` callbacks.
"""

from __future__ import annotations

import math
from collections import deque
from operator import itemgetter
from typing import Callable, Optional

from repro.core.prediction_join import PredictionJoin
from repro.faults.spec import WatchdogConfig
from repro.sim.engine import Simulator, Timer

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"

#: The error of a ``(time, error)`` window entry.
_error_of = itemgetter(1)


class EstimatorHealthWatchdog:
    """Periodic health checker over the AP's prediction ``join``."""

    def __init__(self, sim: Simulator, join: PredictionJoin,
                 config: Optional[WatchdogConfig] = None,
                 on_demote: Optional[Callable[[str], None]] = None,
                 on_promote: Optional[Callable[[str], None]] = None):
        self.sim = sim
        self.config = config or WatchdogConfig()
        self.on_demote = on_demote
        self.on_promote = on_promote
        self.state = STATE_HEALTHY
        #: (time, new_state, reason) for every transition, in order.
        self.transitions: list[tuple[float, str, str]] = []
        self.join = join
        join.on_pair = self.note_delivery
        self._errors: deque[tuple[float, float]] = deque()
        self._unhealthy_since: Optional[float] = None
        self._healthy_since: Optional[float] = None
        self.trace = None
        self._track = "ap/watchdog"
        self._timer = Timer(sim, self.config.check_interval, self._check)

    # -- observation feed ----------------------------------------------------

    def note_delivery(self, predicted: float, actual: float) -> None:
        """One joined pair (the join's ``on_pair``): window its error."""
        now = self.sim.now
        error = abs(actual - predicted)
        self._errors.append((now, error))
        self._expire_errors(now)

    def notify_reset(self) -> None:
        """The estimators were just wiped — demote immediately.

        A reset invalidates the joined error history; the AP clears the
        join's open predictions (made by the dead estimator state).
        """
        self._errors.clear()
        self._unhealthy_since = None
        self._healthy_since = None
        if self.state == STATE_HEALTHY:
            self._transition(STATE_DEGRADED, "reset")

    # -- health evaluation ---------------------------------------------------

    @property
    def mean_error(self) -> float:
        """Mean windowed join error: ``math.fsum`` of the window, taken
        when read (once per check), so deliveries keep no running sum."""
        if not self._errors:
            return 0.0
        return math.fsum(map(_error_of, self._errors)) / len(self._errors)

    def recent_errors(self) -> tuple[float, ...]:
        """Windowed |predicted - actual| join errors, oldest first.

        The same samples :meth:`_check` aggregates into ``mean_error``,
        exposed raw so the control layer can compute tail quantiles
        (P95) over the identical window.
        """
        self._expire_errors(self.sim.now)
        return tuple(error for _, error in self._errors)

    @property
    def stale(self) -> bool:
        """True when deliveries have stopped joining predictions.

        Staleness (a blackout, a dead client) is the stronger signal
        than inaccuracy: the estimators are not merely off, they are
        describing a link that no longer delivers at all.
        """
        oldest = self.join.oldest_noted_at
        return (oldest is not None
                and self.sim.now - oldest > self.config.stale_after)

    def _expire_errors(self, now: float) -> None:
        horizon = now - self.config.health_window
        while self._errors and self._errors[0][0] < horizon:
            self._errors.popleft()

    def _check(self) -> None:
        now = self.sim.now
        self._expire_errors(now)
        config = self.config
        stale = self.stale
        fresh = len(self._errors)
        inaccurate = fresh > 0 and self.mean_error > config.error_threshold
        unhealthy = stale or inaccurate
        if self.state == STATE_HEALTHY:
            self._healthy_since = None
            if not unhealthy:
                self._unhealthy_since = None
                return
            if self._unhealthy_since is None:
                self._unhealthy_since = now
            if now - self._unhealthy_since >= config.demote_after:
                self._transition(STATE_DEGRADED,
                                 "stale" if stale else "inaccurate")
        else:
            self._unhealthy_since = None
            healthy = (not unhealthy and fresh >= config.min_samples)
            if not healthy:
                self._healthy_since = None
                return
            if self._healthy_since is None:
                self._healthy_since = now
            if now - self._healthy_since >= config.promote_after:
                self._transition(STATE_HEALTHY, "recovered")

    def _transition(self, state: str, reason: str) -> None:
        self.state = state
        self.transitions.append((self.sim.now, state, reason))
        self._unhealthy_since = None
        self._healthy_since = None
        if self.trace is not None:
            self.trace.fault_watchdog(self._track, state, reason)
        callback = (self.on_demote if state == STATE_DEGRADED
                    else self.on_promote)
        if callback is not None:
            callback(reason)

    # -- lifecycle -----------------------------------------------------------

    def enable_trace(self, bus, track: str = "ap/watchdog") -> None:
        self.trace = bus
        self._track = track

    def stop(self) -> None:
        self._timer.stop()
