"""The prediction–truth join: its bound, its reset and its loss rule.

:class:`~repro.core.prediction_join.PredictionJoin` is the one owner of
"this prediction will never pair":

* **Bound** — at most ``MAX_OPEN_PREDICTIONS`` (4096) open
  predictions, the oldest evicted first (``evicted``).
* **Reset** — an AP reset clears the open map, so a packet predicted
  before a reset and delivered after it does not pair.
* **Loss** — one AP's downlink delivers each flow's packets in order,
  so a delivery retires every older open prediction of its flow
  (``lost``), whatever lost the packet.
* **Order** — pairs are appended in delivery order.

A hypothesis schedule checks the join against a list-based model of
those four rules and the conservation they imply: every prediction
noted since the last reset is joined, lost, evicted or still open.
Full scenarios on ``fifo``, ``codel`` and ``fq_codel`` with two RTC
flows check that ``lost`` counts exactly the RTC packets the queue
dropped or the air lost before their flow's last delivery.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.prediction_join as prediction_join
from repro.campaign import ScenarioSpec, TraceSpec
from repro.core.prediction_join import MAX_OPEN_PREDICTIONS, PredictionJoin
from repro.sim.engine import Simulator
from repro.topology.builder import TopologyBuilder

pytestmark = pytest.mark.bitexact


class ModelJoin:
    """The join's four rules over one list of open predictions."""

    def __init__(self, sim, cap):
        self.sim = sim
        self.cap = cap
        self.open = []  # [pkt_id, flow, noted_at, predicted], note order
        self.pairs = []
        self.evicted = self.lost = 0

    def _find(self, pkt_id):
        for index, entry in enumerate(self.open):
            if entry[0] == pkt_id:
                return index
        return None

    def note(self, pkt_id, flow, predicted):
        index = self._find(pkt_id)
        if index is not None:
            del self.open[index]
        elif len(self.open) >= self.cap:
            del self.open[0]
            self.evicted += 1
        self.open.append([pkt_id, flow, self.sim.now, predicted])

    def deliver(self, pkt_id):
        index = self._find(pkt_id)
        if index is None:
            return
        _, flow, noted_at, predicted = self.open.pop(index)
        kept = [entry for entry in self.open[:index] if entry[1] != flow]
        self.lost += index - len(kept)
        self.open[:index] = kept
        self.pairs.append((predicted, self.sim.now - noted_at))

    def reset(self):
        self.open = []


FLOWS = st.sampled_from(["a", "b", "c"])
PREDICTED = st.sampled_from([0.0, 0.004, 0.02, 0.05])
STEP = st.sampled_from([0.0, 0.001, 0.004, 0.02, 0.3])
PICK = st.integers(0, 1 << 16)
ARGS = {"note": (FLOWS, PREDICTED), "renote": (PICK, PREDICTED),
        "deliver": (PICK,), "stray": (), "reset": (), "advance": (STEP,)}
OP = {kind: st.tuples(st.just(kind), *args) for kind, args in ARGS.items()}
#: Notes and deliveries dominate, as on a busy AP; a reset is rare.
OPS = st.sampled_from(["note"] * 6 + ["deliver"] * 5 + ["advance"] * 3
                      + ["renote", "stray", "reset"]).flatmap(
    OP.__getitem__)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, min_size=30, max_size=150),
       st.sampled_from([2, 5, MAX_OPEN_PREDICTIONS]))
def test_join_keeps_its_rules_and_conserves_predictions(schedule, cap):
    sim = Simulator()
    join = PredictionJoin(sim)
    join.record = True
    model = ModelJoin(sim, cap)
    next_id = noted = 0
    base = (0, 0, 0)  # (joined, lost, evicted) at the last reset
    with mock.patch.object(prediction_join, "MAX_OPEN_PREDICTIONS", cap):
        for op in schedule:
            kind = op[0]
            if kind == "advance":
                sim.run(until=sim.now + op[1])
            elif kind == "reset":
                join.reset()
                model.reset()
                noted = 0
                base = (len(join.actual), join.lost, join.evicted)
            elif kind == "stray":
                join.deliver(-1)
            elif kind == "note":
                join.note(next_id, op[1], op[2])
                model.note(next_id, op[1], op[2])
                next_id += 1
                noted += 1
            elif model.open:
                pkt_id, flow, _, _ = model.open[op[1] % len(model.open)]
                if kind == "renote":
                    join.note(pkt_id, flow, op[2])
                    model.note(pkt_id, flow, op[2])
                else:
                    join.deliver(pkt_id)
                    model.deliver(pkt_id)
            assert [(pkt_id, (noted_at, predicted, flow))
                    for pkt_id, flow, noted_at, predicted in model.open] \
                == list(join._open.items())
            assert (join.lost, join.evicted) == (model.lost, model.evicted)
            assert list(zip(join.predicted, join.actual)) == model.pairs
            assert join.oldest_noted_at == (model.open[0][2] if model.open
                                            else None)
            # Conservation since the last reset (a re-note of an open
            # packet notes nothing new).
            joined, lost, evicted = base
            assert noted == (len(join.actual) - joined + join.lost - lost
                             + join.evicted - evicted + len(join))


def test_delivery_retires_only_its_own_flows_older_predictions():
    sim = Simulator()
    join = PredictionJoin(sim)
    join.record = True
    for pkt_id, flow in enumerate("abab"):
        join.note(pkt_id, flow, 0.01)
    sim.run(until=0.02)
    join.deliver(2)  # a's second packet: a's first was lost
    assert join.lost == 1 and list(join._open) == [1, 3]
    join.deliver(0)  # the lost packet turns up: it no longer pairs
    assert len(join.actual) == 1
    join.deliver(1)  # b in order: nothing retired
    assert join.lost == 1 and list(join._open) == [3]


def test_bound_evicts_the_oldest_open_prediction():
    """More than 4096 open predictions: the oldest go, counted, and a
    late delivery of an evicted packet does not pair."""
    sim = Simulator()
    join = PredictionJoin(sim)
    join.record = True
    extra = 10
    for pkt_id in range(MAX_OPEN_PREDICTIONS + extra):
        join.note(pkt_id, pkt_id % 2, 0.001 * pkt_id)
        sim.run(until=sim.now + 0.001)
    assert len(join) == MAX_OPEN_PREDICTIONS
    assert join.evicted == extra
    assert next(iter(join._open)) == extra
    assert join.oldest_noted_at == join._open[extra][0]
    for pkt_id in (0, extra - 1, extra, extra + 1):
        join.deliver(pkt_id)
    assert list(join.predicted) == [0.001 * extra, 0.001 * (extra + 1)]
    assert join.lost == 0
    # Re-noting an open packet refreshes it without evicting anything.
    join.note(extra + 2, 0, 0.5)
    assert join.evicted == extra
    assert next(reversed(join._open)) == extra + 2


def test_reset_clears_open_predictions():
    """A packet predicted before an AP reset does not pair after it."""
    sim = Simulator()
    join = PredictionJoin(sim)
    join.record = True
    for pkt_id in (1, 2):
        join.note(pkt_id, "f", 0.01)
    join.reset()
    join.note(2, "f", 0.02)  # predicted again after the reset
    sim.run(until=0.03)
    for pkt_id in (1, 2):
        join.deliver(pkt_id)
    assert list(zip(join.predicted, join.actual)) == [(0.02, 0.03)]
    assert len(join) == 0 and join.oldest_noted_at is None
    assert join.lost == 0


def test_unrecorded_join_keeps_no_pairs_but_feeds_its_subscriber():
    sim = Simulator()
    join = PredictionJoin(sim)
    seen = []
    join.on_pair = lambda predicted, actual: seen.append((predicted, actual))
    join.note(7, "f", 0.25)
    sim.run(until=0.5)
    join.deliver(7)
    join.deliver(7)  # a second delivery finds nothing open
    assert seen == [(0.25, 0.5)]
    assert len(join.predicted) == len(join.actual) == 0


class CountingJoin(PredictionJoin):
    """The AP's join, counting its notes and checking that each flow's
    packet ids rise in note order (so id order is note order)."""

    def __init__(self, sim):
        super().__init__(sim)
        self.noted = 0
        self.last_noted = {}

    def note(self, pkt_id, flow, predicted):
        assert pkt_id > self.last_noted.get(flow, -1)
        self.last_noted[flow] = pkt_id
        self.noted += 1
        super().note(pkt_id, flow, predicted)


@pytest.mark.parametrize("queue_kind", ["fifo", "codel", "fq_codel"])
def test_lost_counts_the_aps_queue_drops_and_air_losses(queue_kind):
    """Two RTC flows and two competitors into a 30 kB queue, 5 % of the
    downlink lost over the air for 2 s, no reset: the join conserves
    its predictions and ``lost`` is exactly the RTC packets the queue
    dropped or the air lost before their flow's last delivery."""
    spec = ScenarioSpec(trace=TraceSpec.for_family("W1", duration=10, seed=1),
                        protocol="rtp", ap_mode="zhuge", queue_kind=queue_kind,
                        rtc_flows=2, competitors=2, duration=8,
                        queue_capacity=30_000)
    builder = TopologyBuilder(spec)
    sim, zhuge = builder.sim, builder.zhuge
    rtc = {fr.flow for fr in builder.forwarding.rtc}
    join = zhuge.predictions = CountingJoin(sim)
    join.record = True
    dropped = {}  # pkt_id -> flow, for RTC packets that never arrive
    zhuge.downlink_queue.on_drop.append(
        lambda packet, reason: dropped.__setitem__(packet.pkt_id, packet.flow)
        if packet.flow in rtc else None)
    rng = random.Random(7)

    def air_loss(packet):
        if 3.0 <= sim.now < 5.0 and rng.random() < 0.05:
            if packet.flow in rtc:
                dropped[packet.pkt_id] = packet.flow
            return True
        return False

    builder.downlink_wireless.fault_drop = air_loss
    last_delivered = {}
    deliver = zhuge.on_wireless_delivery

    def on_delivery(packet):
        last_delivered[packet.flow] = packet.pkt_id
        deliver(packet)

    zhuge.on_wireless_delivery = on_delivery
    builder.run()
    assert set(last_delivered) >= rtc and join.evicted == 0
    assert join.noted == len(join.actual) + join.lost + len(join)
    before_last = {pkt_id for pkt_id, flow in dropped.items()
                   if pkt_id < last_delivered[flow]}
    assert before_last and join.lost == len(before_last)
    assert not before_last & set(join._open)
    assert set(dropped) - before_last <= set(join._open)
