"""Oracles for the prediction–truth join: the three joins it replaces.

Before one :class:`~repro.core.prediction_join.PredictionJoin` per AP,
the prediction of packet *p* at AP arrival was joined against *p*'s
delivery three times, each with its own bookkeeping:

* ``FortuneTeller.records`` — an unbounded dict of ``PredictionRecord``
  keyed by ``pkt_id`` in first-arrival order, filled by
  ``observe_arrival`` and read by ``accuracy_pairs()``; it survived
  ``reset()`` (here :class:`ReferenceTellerRecords`, the recording half
  of ``observe_arrival`` taking the prediction as an argument);
* ``EstimatorHealthWatchdog._open`` — an ``OrderedDict`` capped at
  ``MAX_OPEN_PREDICTIONS`` with oldest-first eviction, cleared by
  ``notify_reset`` and by ``note_drop`` (here
  :class:`ReferenceWatchdog`);
* ``PredictionAuditor._open`` — a plain dict driven by ``ap.predict``,
  ``link.deliver`` and ``queue.drop`` trace events, never reset or
  bounded (here :class:`ReferenceAuditor`; ``report`` is unchanged and
  inherited).

The bodies are kept verbatim. ``tests/test_prediction_join.py`` drives
them and the join with one schedule and states which rule the join
keeps on each axis where they differ.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.spec import WatchdogConfig
from repro.faults.watchdog import STATE_DEGRADED, STATE_HEALTHY
from repro.obs.audit import PredictionAuditor
from repro.obs.events import TraceEvent
from repro.sim.engine import Simulator, Timer
from tests.reference_sums import ExactFloatSum

#: Open-prediction table cap: beyond this the oldest entries are
#: evicted. During a blackout nothing is delivered, so the table would
#: otherwise grow with every downlink packet the sender keeps pushing.
MAX_OPEN_PREDICTIONS = 4096


@dataclass
class PredictionRecord:
    """Predicted vs (later) actual delay, for the Fig. 19 accuracy study."""

    pkt_id: int
    predicted: float
    arrival_time: float
    actual: Optional[float] = None


class ReferenceTellerRecords:
    """``FortuneTeller``'s Fig. 19 ledger."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.records: dict[int, PredictionRecord] = {}

    def observe_arrival(self, packet, total: float) -> None:
        self.records[packet.pkt_id] = PredictionRecord(
            packet.pkt_id, total, self.sim.now)

    def observe_delivery(self, packet) -> None:
        """Record the packet's actual delay once it reaches the client."""
        record = self.records.get(packet.pkt_id)
        if record is not None:
            record.actual = self.sim.now - record.arrival_time

    def accuracy_pairs(self) -> list[tuple[float, float]]:
        """(predicted, actual) pairs for delivered packets (Fig. 19)."""
        return [(r.predicted, r.actual) for r in self.records.values()
                if r.actual is not None]




class ReferenceWatchdog:
    """The watchdog with its own open table (``_open``)."""

    def __init__(self, sim: Simulator, config: Optional[WatchdogConfig] = None,
                 on_demote: Optional[Callable[[str], None]] = None,
                 on_promote: Optional[Callable[[str], None]] = None):
        self.sim = sim
        self.config = config or WatchdogConfig()
        self.on_demote = on_demote
        self.on_promote = on_promote
        self.state = STATE_HEALTHY
        #: (time, new_state, reason) for every transition, in order.
        self.transitions: list[tuple[float, str, str]] = []
        self._open: OrderedDict[int, tuple[float, float]] = OrderedDict()
        self._errors: deque[tuple[float, float]] = deque()
        self._error_sum = ExactFloatSum()
        self._unhealthy_since: Optional[float] = None
        self._healthy_since: Optional[float] = None
        self.evicted = 0
        self.trace = None
        self._track = "ap/watchdog"
        self._timer = Timer(sim, self.config.check_interval, self._check)

    # -- observation feed ----------------------------------------------------

    def note_prediction(self, pkt_id: int, predicted_delay: float) -> None:
        """The AP predicted ``predicted_delay`` for packet ``pkt_id``."""
        if pkt_id in self._open:
            del self._open[pkt_id]
        elif len(self._open) >= MAX_OPEN_PREDICTIONS:
            self._open.popitem(last=False)
            self.evicted += 1
        self._open[pkt_id] = (self.sim.now, predicted_delay)

    def note_delivery(self, pkt_id: int) -> None:
        """Packet ``pkt_id`` made it over the air; join with prediction."""
        entry = self._open.pop(pkt_id, None)
        if entry is None:
            return
        noted_at, predicted = entry
        now = self.sim.now
        error = abs((now - noted_at) - predicted)
        self._errors.append((now, error))
        self._error_sum.add(error)
        self._expire_errors(now)

    def note_drop(self, pkt_id: int) -> None:
        """Packet ``pkt_id`` was dropped before the air: forget it.

        A prediction whose packet never flies is unfalsifiable — it can
        neither join nor legitimately age into staleness. Left in the
        open table it would read as "deliveries stopped" long after a
        queue flush, so callers that drop packets deliberately (the
        control layer's queue clamp) unregister them here.
        """
        self._open.pop(pkt_id, None)

    def notify_reset(self) -> None:
        """The estimators were just wiped — demote immediately.

        A reset invalidates both the open-prediction table (predictions
        made by the dead estimator state) and the joined error history.
        """
        self._open.clear()
        self._errors.clear()
        self._error_sum.reset()
        self._unhealthy_since = None
        self._healthy_since = None
        if self.state == STATE_HEALTHY:
            self._transition(STATE_DEGRADED, "reset")

    # -- health evaluation ---------------------------------------------------

    @property
    def mean_error(self) -> float:
        if not self._errors:
            return 0.0
        return self._error_sum.value() / len(self._errors)

    def recent_errors(self) -> tuple[float, ...]:
        """Windowed |predicted - actual| join errors, oldest first.

        The same samples :meth:`_check` aggregates into ``mean_error``,
        exposed raw so the control layer can compute tail quantiles
        (P95) over the identical window.
        """
        self._expire_errors(self.sim.now)
        return tuple(error for _, error in self._errors)

    @property
    def open_prediction_count(self) -> int:
        """Predictions awaiting a delivery join (idle APs hold none)."""
        return len(self._open)

    @property
    def stale(self) -> bool:
        """True when deliveries have stopped joining predictions.

        Staleness (a blackout, a dead client) is the stronger signal
        than inaccuracy: the estimators are not merely off, they are
        describing a link that no longer delivers at all.
        """
        return self._is_stale(self.sim.now)

    def _expire_errors(self, now: float) -> None:
        horizon = now - self.config.health_window
        while self._errors and self._errors[0][0] < horizon:
            _, error = self._errors.popleft()
            self._error_sum.subtract(error)
        if not self._errors:
            self._error_sum.reset()

    def _is_stale(self, now: float) -> bool:
        if not self._open:
            return False
        oldest_noted_at = next(iter(self._open.values()))[0]
        return now - oldest_noted_at > self.config.stale_after

    def _check(self) -> None:
        now = self.sim.now
        self._expire_errors(now)
        config = self.config
        stale = self._is_stale(now)
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


class ReferenceAuditor(PredictionAuditor):
    """The auditor's live trace-event join."""

    def __init__(self):
        #: pkt_id -> (prediction time, predicted total delay)
        self._open: dict[int, tuple[float, float]] = {}
        self.pairs: list[tuple[float, float]] = []
        self.unmatched_predictions = 0

    def __call__(self, event: TraceEvent) -> None:
        """Join predictions against deliveries, one trace event at a time."""
        if event.category == "ap" and event.name == "predict":
            self._open[event.args["pkt_id"]] = (event.time,
                                                event.args["total"])
        elif event.category == "link" and event.name == "deliver":
            opened = self._open.pop(event.args["pkt_id"], None)
            if opened is not None:
                predicted_at, predicted = opened
                self.pairs.append((predicted, event.time - predicted_at))
        elif event.category == "queue" and event.name == "drop":
            # Dropped packets never deliver; forget their predictions so
            # the join table stays bounded over long runs.
            if self._open.pop(event.args["pkt_id"], None) is not None:
                self.unmatched_predictions += 1
