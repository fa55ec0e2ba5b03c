"""The prediction–truth join: one per Zhuge AP.

Fig. 19 and the AP's own safety rest on one join: the Fortune Teller's
``qLong + qShort + tx`` forecast for packet *p* at AP arrival against
*p*'s delivery over the air. The watchdog reads its staleness, open
count and pairs; Fig. 19 and the trace auditor read the ``predicted``
/ ``actual`` columns, filled only while ``record`` is set. An AP holds
none until something subscribes (``ZhugeAP.predictions is None``).

The join alone decides that a prediction will never pair. One AP's
downlink delivers each flow's packets in order (``fifo``, ``codel``
and ``fq_codel``'s per-flow sub-queues, and the AMPDU all keep it), so
when packet *p* of flow *f* is delivered, every open prediction of *f*
noted before *p* belongs to a lost packet — a tail drop, an AQM drop,
the control clamp's head trim, a loss over the air or a roam flush.
The delivery retires them and counts them in ``lost``. Every noted
prediction ends joined, lost, evicted by the bound, cleared by a reset
or still open.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Callable, Optional

from repro.net.packet import FiveTuple

#: Open-map cap: beyond it the oldest entry is evicted. During a
#: blackout nothing is delivered, so the map would otherwise grow with
#: every downlink packet the sender keeps pushing.
MAX_OPEN_PREDICTIONS = 4096


class PredictionJoin:
    """Bounded ``pkt_id -> (noted_at, predicted, flow)`` map in note
    order, each flow's open ids in note order beside it, plus joined
    pairs appended in delivery order (``actual`` = delivery − noted_at)."""

    __slots__ = ("sim", "record", "predicted", "actual", "on_pair",
                 "evicted", "lost", "_open", "_flows")

    def __init__(self, sim):
        self.sim = sim
        #: Keep every joined pair (``ZhugeAP.join_predictions(record=True)``).
        self.record = False
        self.predicted = array("d")
        self.actual = array("d")
        #: ``(predicted, actual)`` subscriber: the watchdog's error feed.
        self.on_pair: Optional[Callable[[float, float], None]] = None
        self.evicted = 0
        #: Predictions retired because a later packet of their flow
        #: was delivered first: their packets were lost.
        self.lost = 0
        self._open: OrderedDict[int, tuple[float, float, FiveTuple]] = \
            OrderedDict()
        self._flows: dict[FiveTuple, OrderedDict[int, None]] = {}

    def note(self, pkt_id: int, flow: FiveTuple, predicted: float) -> None:
        """The AP predicted ``predicted`` seconds for packet ``pkt_id``
        of ``flow``."""
        opened = self._open
        if pkt_id in opened:
            del self._flows[opened.pop(pkt_id)[2]][pkt_id]
        elif len(opened) >= MAX_OPEN_PREDICTIONS:
            oldest, (_, _, oldest_flow) = opened.popitem(last=False)
            del self._flows[oldest_flow][oldest]
            self.evicted += 1
        opened[pkt_id] = (self.sim.now, predicted, flow)
        order = self._flows.get(flow)
        if order is None:
            order = self._flows[flow] = OrderedDict()
        order[pkt_id] = None

    def deliver(self, pkt_id: int) -> None:
        """Packet ``pkt_id`` made it over the air: join it, and retire
        its flow's older open predictions as lost."""
        opened = self._open
        entry = opened.pop(pkt_id, None)
        if entry is None:
            return
        noted_at, predicted, flow = entry
        order = self._flows[flow]
        older = order.popitem(last=False)[0]
        while older != pkt_id:
            del opened[older]
            self.lost += 1
            older = order.popitem(last=False)[0]
        actual = self.sim.now - noted_at
        if self.record:
            self.predicted.append(predicted)
            self.actual.append(actual)
        if self.on_pair is not None:
            self.on_pair(predicted, actual)

    def reset(self) -> None:
        """Forget every open prediction (the estimators were wiped)."""
        self._open.clear()
        self._flows.clear()

    def __len__(self) -> int:
        """Open predictions (idle APs hold none)."""
        return len(self._open)

    @property
    def oldest_noted_at(self) -> Optional[float]:
        """When the oldest open prediction was noted (``None`` if none)."""
        for entry in self._open.values():
            return entry[0]
        return None
