"""One prediction–truth join against the three joins it replaces.

``tests/reference_prediction.py`` keeps the Fortune Teller's
``records``, the watchdog's open table and the auditor's live
trace-event join verbatim. A hypothesis schedule of notes, re-notes,
deliveries, drops, resets and time steps drives them in one simulator
and :class:`~repro.core.prediction_join.PredictionJoin` plus the new
watchdog in another. The readers must agree: the open map entry for
entry, the watchdog's transitions with their times, its
``recent_errors()``, and the auditor's report.

Where the old joins disagreed, the join keeps one rule per axis:

* **Bound** — the watchdog's: at most ``MAX_OPEN_PREDICTIONS`` (4096)
  open predictions, the oldest evicted first. The teller's records and
  the auditor's table were unbounded.
* **Reset** — the watchdog's: an AP reset clears the open map, so a
  packet predicted before a reset and delivered after it does not
  pair. The teller's records survived ``reset()``; the auditor never
  reset.
* **Drops** — only the controller's queue-drop hook forgets a dropped
  packet's prediction (the watchdog's ``note_drop``); without a
  controller it stays open. The auditor forgot every queue drop, which
  changes no pair: a dropped packet never delivers.
* **Order** — pairs are appended in delivery order, like the auditor's.
  The teller listed them in first-arrival order, so against it the
  pairs are equal as sequences when deliveries come in note order and
  as multisets otherwise.

So the join's pairs are the old pairs minus the packets a reset
cleared or the bound evicted before they delivered.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.prediction_join as prediction_join
import tests.reference_prediction as reference
from repro.core.prediction_join import MAX_OPEN_PREDICTIONS, PredictionJoin
from repro.faults.spec import WatchdogConfig
from repro.faults.watchdog import EstimatorHealthWatchdog
from repro.obs.audit import PredictionAuditor
from repro.obs.events import INFO, TraceEvent
from repro.sim.engine import Simulator

pytestmark = pytest.mark.bitexact

#: A watchdog that demotes and promotes inside a short schedule.
TWITCHY = WatchdogConfig(stale_after=0.3, demote_after=0.1,
                         promote_after=0.2, min_samples=2,
                         error_threshold=0.1)


class OldJoins:
    """The teller's records, the watchdog's table and the live auditor,
    fed the way the AP, the controller hook and the trace bus fed them."""

    def __init__(self, config):
        self.sim = Simulator()
        self.records = reference.ReferenceTellerRecords(self.sim)
        self.dog = reference.ReferenceWatchdog(self.sim, config)
        self.auditor = reference.ReferenceAuditor()

    def _event(self, category, name, pkt_id, **args):
        self.auditor(TraceEvent(self.sim.now, category, name, "t", INFO,
                                {"pkt_id": pkt_id, **args}))

    def note(self, pkt_id, predicted):
        self.records.observe_arrival(SimpleNamespace(pkt_id=pkt_id),
                                     predicted)
        self.dog.note_prediction(pkt_id, predicted)
        self._event("ap", "predict", pkt_id, total=predicted)

    def deliver(self, pkt_id):
        self.records.observe_delivery(SimpleNamespace(pkt_id=pkt_id))
        self.dog.note_delivery(pkt_id)
        self._event("link", "deliver", pkt_id)

    def drop(self, pkt_id, hooked):
        if hooked:
            self.dog.note_drop(pkt_id)
        self._event("queue", "drop", pkt_id)

    def reset(self):
        self.dog.notify_reset()


class NewJoin:
    """One join, read by the watchdog, as ``ZhugeAP`` wires it."""

    def __init__(self, config):
        self.sim = Simulator()
        self.join = PredictionJoin(self.sim)
        self.join.record = True
        self.dog = EstimatorHealthWatchdog(self.sim, self.join, config)

    def note(self, pkt_id, predicted):
        self.join.note(pkt_id, predicted)

    def deliver(self, pkt_id):
        self.join.deliver(pkt_id)

    def drop(self, pkt_id, hooked):
        if hooked:
            self.join.drop(pkt_id)

    def reset(self):
        self.join.reset()
        self.dog.notify_reset()

    @property
    def pairs(self):
        return list(zip(self.join.predicted, self.join.actual))


#: Mostly accurate forecasts of the short steps below, sometimes wild.
ACCURATE = st.sampled_from([0.0, 0.004, 0.02, 0.05])
PREDICTED = st.one_of(ACCURATE, ACCURATE, ACCURATE, st.floats(0, 2))
PICK = st.integers(0, 1 << 16)
SHORT = st.sampled_from([0.0, 0.001, 0.004, 0.02, 0.05])
STEP = st.one_of(SHORT, SHORT, SHORT, st.sampled_from([0.1, 0.35, 1.2]),
                 st.floats(0, 1))
ARGS = {"note": (PREDICTED,), "renote": (PICK, PREDICTED), "deliver": (PICK,),
        "drop": (PICK, st.booleans()), "stray": (st.booleans(),),
        "reset": (), "advance": (STEP,)}
OP = {kind: st.tuples(st.just(kind), *args) for kind, args in ARGS.items()}
#: Notes and deliveries dominate, as on a busy AP; a reset is rare.
OPS = st.sampled_from(["note"] * 6 + ["deliver"] * 6 + ["advance"] * 6
                      + ["renote", "drop", "stray", "reset"]).flatmap(
    OP.__getitem__)


def _replay(schedule, config):
    """Run ``schedule`` on both sides; returns what the checks need."""
    old, new = OldJoins(config), NewJoin(config)
    noted = 0
    live: list[int] = []       # noted, not yet delivered or dropped
    delivered: list[int] = []  # in delivery order
    joinable: set[int] = set()     # delivered from the watchdog's table
    audited: list[int] = []        # delivered from the auditor's table
    lost: set[int] = set()     # cleared by a reset or evicted while open

    def note(pkt_id, predicted):
        opened = old.dog._open
        if (pkt_id not in opened
                and len(opened) >= reference.MAX_OPEN_PREDICTIONS):
            lost.add(next(iter(opened)))
        for side in (old, new):
            side.note(pkt_id, predicted)

    for op in schedule:
        kind = op[0]
        if kind == "advance":
            for side in (old, new):
                side.sim.run(until=side.sim.now + op[1])
        elif kind == "reset":
            lost.update(old.dog._open)
            for side in (old, new):
                side.reset()
        elif kind == "stray":
            for side in (old, new):
                if op[1]:
                    side.deliver(-1)
                else:
                    side.drop(-1, True)
        elif kind == "note":
            live.append(noted)
            note(noted, op[1])
            noted += 1
        elif live:
            pkt_id = live[op[1] % len(live)]
            if kind == "renote":
                note(pkt_id, op[2])
            elif kind == "deliver":
                live.remove(pkt_id)
                delivered.append(pkt_id)
                if pkt_id in old.dog._open:
                    joinable.add(pkt_id)
                if pkt_id in old.auditor._open:
                    audited.append(pkt_id)
                for side in (old, new):
                    side.deliver(pkt_id)
            else:
                live.remove(pkt_id)
                for side in (old, new):
                    side.drop(pkt_id, op[2])
        # The open map is the watchdog's table, entry for entry.
        assert list(new.join._open.items()) == list(old.dog._open.items())
        assert len(new.join) == old.dog.open_prediction_count
        assert new.join.evicted == old.dog.evicted
        assert new.dog.stale == old.dog.stale
    for side in (old, new):
        side.sim.run(until=side.sim.now + 2.0)
    return old, new, delivered, joinable, audited, lost


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, min_size=30, max_size=150),
       st.sampled_from([WatchdogConfig(), TWITCHY]),
       st.sampled_from([2, 5, MAX_OPEN_PREDICTIONS]))
def test_join_matches_the_three_old_joins(schedule, config, cap):
    with mock.patch.object(prediction_join, "MAX_OPEN_PREDICTIONS", cap), \
            mock.patch.object(reference, "MAX_OPEN_PREDICTIONS", cap):
        old, new, delivered, joinable, audited, lost = _replay(schedule,
                                                               config)
    # Watchdog: identical transitions, times included, and error window.
    assert new.dog.transitions == old.dog.transitions
    assert new.dog.recent_errors() == old.dog.recent_errors()
    # Only packets a reset cleared or the bound evicted stop pairing.
    assert set(delivered) - joinable <= lost
    if not lost:
        assert joinable == set(delivered)
    # Auditor: its pairs minus the lost ones, in the same order.
    kept = [pair for pkt_id, pair in zip(audited, old.auditor.pairs)
            if pkt_id in joinable]
    assert new.pairs == kept
    old.auditor.pairs = kept
    assert PredictionAuditor.from_pairs(new.pairs).report() == \
        old.auditor.report()
    # Teller records (Fig. 19): first-arrival order, unbounded, kept
    # across resets.
    teller = [(pkt_id, (record.predicted, record.actual))
              for pkt_id, record in old.records.records.items()
              if record.actual is not None]
    assert [pkt_id for pkt_id, _ in teller] == sorted(delivered)
    expected = [pair for pkt_id, pair in teller if pkt_id in joinable]
    in_note_order = [pkt_id for pkt_id in delivered if pkt_id in joinable]
    if in_note_order == sorted(in_note_order):
        assert new.pairs == expected
    else:
        assert sorted(new.pairs) == sorted(expected)


def test_bound_evicts_the_oldest_open_prediction():
    """More than 4096 open predictions: the oldest go, counted, and a
    late delivery of an evicted packet does not pair."""
    sim = Simulator()
    join = PredictionJoin(sim)
    join.record = True
    dog = reference.ReferenceWatchdog(sim)
    extra = 10
    for pkt_id in range(MAX_OPEN_PREDICTIONS + extra):
        join.note(pkt_id, 0.001 * pkt_id)
        dog.note_prediction(pkt_id, 0.001 * pkt_id)
        sim.run(until=sim.now + 0.001)
    assert len(join) == MAX_OPEN_PREDICTIONS
    assert join.evicted == dog.evicted == extra
    assert list(join._open.items()) == list(dog._open.items())
    assert join.oldest_noted_at == dog._open[extra][0]
    for pkt_id in (0, extra - 1, extra, MAX_OPEN_PREDICTIONS + extra - 1):
        join.deliver(pkt_id)
    assert list(join.predicted) == [0.001 * extra,
                                    0.001 * (MAX_OPEN_PREDICTIONS
                                             + extra - 1)]
    # Re-noting an open packet refreshes it without evicting anything.
    join.note(extra + 1, 0.5)
    assert join.evicted == extra
    assert next(reversed(join._open)) == extra + 1


def test_reset_clears_open_predictions():
    """A packet predicted before an AP reset does not pair after it
    (the teller's records used to keep it)."""
    sim = Simulator()
    join = PredictionJoin(sim)
    join.record = True
    records = reference.ReferenceTellerRecords(sim)
    for pkt_id in (1, 2):
        join.note(pkt_id, 0.01)
        records.observe_arrival(SimpleNamespace(pkt_id=pkt_id), 0.01)
    join.reset()
    join.note(2, 0.02)  # predicted again after the reset
    records.observe_arrival(SimpleNamespace(pkt_id=2), 0.02)
    sim.run(until=0.03)
    for pkt_id in (1, 2):
        join.deliver(pkt_id)
        records.observe_delivery(SimpleNamespace(pkt_id=pkt_id))
    assert records.accuracy_pairs() == [(0.01, 0.03), (0.02, 0.03)]
    assert list(zip(join.predicted, join.actual)) == [(0.02, 0.03)]
    assert len(join) == 0 and join.oldest_noted_at is None


def test_unrecorded_join_keeps_no_pairs_but_feeds_its_subscriber():
    sim = Simulator()
    join = PredictionJoin(sim)
    seen = []
    join.on_pair = lambda predicted, actual: seen.append((predicted, actual))
    join.note(7, 0.25)
    sim.run(until=0.5)
    join.deliver(7)
    join.deliver(7)  # a second delivery finds nothing open
    assert seen == [(0.25, 0.5)]
    assert len(join.predicted) == len(join.actual) == 0
